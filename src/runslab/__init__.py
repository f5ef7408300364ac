"""Exact analysis and simulation of runs in randomly evolving sequences.

The package splits into an exact layer (counting distributions, window
functionals with rational arithmetic, limit covariances) and a simulation
layer (incremental model sweeps, the drifted-path max sampler), tied
together by a verification harness and a command-line front end.  Import
names from their modules, e.g. ``runslab.evolve.run_sweep``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
