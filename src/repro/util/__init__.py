"""Small generic utilities shared across the package."""

from repro._exports import lazy_exports

_EXPORTS = {
    "BitWord": "repro.util.bits",
    "bits_to_int": "repro.util.bits",
    "hamming_distance": "repro.util.bits",
    "int_to_bits": "repro.util.bits",
    "majority_bit": "repro.util.bits",
    "or_reduce": "repro.util.bits",
    "validate_bit": "repro.util.bits",
    "validate_bits": "repro.util.bits",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
