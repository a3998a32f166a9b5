"""The package version, written into every artifact's provenance header."""

__version__ = "0.1.0"
