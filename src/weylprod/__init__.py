"""Workbench for trigonometric products P_N = prod_{k<=N} 2 sin(pi x_k)
over Kronecker, van der Corput, extremal and random point sequences, with
exact star-discrepancy and checkers for the quantitative product bounds.
Import from the submodules; `weylprod.cli` is the command line."""

__version__ = "0.1.0"
