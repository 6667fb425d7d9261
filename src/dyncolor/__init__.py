"""Exact computation and proof verification for r-dynamic coloring parameters:
chromatic, list, and paint numbers, reducible configurations in surface
embeddings, the toroidal discharging argument, and genus-based constructive
bounds."""

from .graph import Graph, add_edges
from .embedding import EmbeddedGraph, embed, find_embedding
from .coloring import chi_r_exact, is_L_colorable_r_dynamic, verify_r_dynamic
from .paintgame import solve_xp_r, xp_r_number
from .configs import ConfigKind, build_reduction, check_budget, check_extendable, find_configs
from .discharge import final_report, initial_charges, run_discharge, unavoidability_driver
from .bounds import bound_profile, color_by_contraction, kp_pipeline, mad

__all__ = [
    "Graph", "add_edges",
    "EmbeddedGraph", "embed", "find_embedding",
    "chi_r_exact", "is_L_colorable_r_dynamic", "verify_r_dynamic",
    "solve_xp_r", "xp_r_number",
    "ConfigKind", "build_reduction", "check_budget", "check_extendable",
    "find_configs",
    "final_report", "initial_charges", "run_discharge", "unavoidability_driver",
    "bound_profile", "color_by_contraction", "kp_pipeline", "mad",
]
