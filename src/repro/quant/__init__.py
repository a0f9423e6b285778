"""Quantized serving path: code-scanning backends with exact re-rank.

Public surface:

* :class:`Sq8Index` (registry: ``sq8`` / ``sharded-sq8``) — per-dimension
  affine int8 scalar quantization, tiled SGEMM scan;
* :class:`PqAdcIndex` (registry: ``pq-adc``) — product-quantized codes
  scored by per-query LUT gather+sum (asymmetric distance computation);
* :class:`VectorStore` — memmapped full-precision row store backing the
  exact re-rank stage of loaded indexes;
* :class:`QuantizedIndexBase` — the shared two-stage
  (scan → over-fetch → re-rank) machinery.
"""

from .adc import PqAdcIndex
from .base import QuantizedIndexBase
from .memmap_store import VectorStore
from .sq8 import Sq8Codec, Sq8Index

__all__ = [
    "PqAdcIndex",
    "QuantizedIndexBase",
    "Sq8Codec",
    "Sq8Index",
    "VectorStore",
]
