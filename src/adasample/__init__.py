"""Descriptor-learning laboratory with adaptive hard-positive sampling.

The package exposes its modules; import names from them (for example
``from adasample.trainer import train``).
"""

__version__ = "0.1.0"
