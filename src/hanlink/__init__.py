"""hanlink: probabilistic record linkage with logographic name matching."""

__version__ = "0.1.0"
