"""Motif census toolkit: exact and sampled counts of 3- and 4-vertex
subgraph classes in directed and undirected graphs."""

from .canon import ArrcodeTable, MotifClass, arrcode_table, pair_slots
from .estimator import CensusReport, optimal_lambda, run_sampled_census
from .exact import ExactCensus, exact_census
from .frames import (FrameBatch, FrameKind, FrameTotals, frame_sampler,
                     frame_totals, induced_subgraph_codes, kinds_for_size,
                     koef_table)
from .graphs import EdgeListError, Graph, LoadReport, load_graph, loads_graph

__version__ = "0.1.0"

__all__ = [
    "ArrcodeTable", "CensusReport", "EdgeListError", "ExactCensus",
    "FrameBatch", "FrameKind", "FrameTotals", "Graph", "LoadReport",
    "MotifClass", "arrcode_table", "exact_census", "frame_sampler",
    "frame_totals", "induced_subgraph_codes", "kinds_for_size",
    "koef_table", "load_graph", "loads_graph", "optimal_lambda",
    "pair_slots", "run_sampled_census",
]
