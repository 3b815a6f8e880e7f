"""Backend-neutral combinatorial optimizers shared by the physical layer."""

from repro.optimize.anneal import anneal

__all__ = ["anneal"]
