"""Host runtime: machines, Cells, tile groups, launches.

The entry point is :class:`repro.Session` / :func:`repro.run`.
"""

from . import dma
from .cell import Cell, LaunchHandle
from .machine import Machine
from .memsys import MemorySystem
from .result import RunResult
from .tilegroup import TileGroup, partition_cell

__all__ = [
    "dma",
    "Machine",
    "MemorySystem",
    "Cell",
    "LaunchHandle",
    "TileGroup",
    "partition_cell",
    "RunResult",
]
