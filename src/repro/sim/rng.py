"""Deterministic seed derivation.

Every component of a simulation gets its own independent
:class:`random.Random` stream derived from the experiment's root seed and a
string label.  This keeps runs bit-reproducible regardless of the order in
which components draw randomness — a property the property-based tests and
the paper-comparison benches rely on.
"""

from __future__ import annotations

import random

# The interpreter's own SHA-256, as ``random`` takes its SHA-512:
# ``hashlib`` would load OpenSSL's libcrypto into every process for this
# one hash (DESIGN.md §17).
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11
    except ImportError:  # pragma: no cover - builds without the module
        from hashlib import sha256


def derive_seed(root: int, *labels: object) -> int:
    """Derive a 64-bit child seed from ``root`` and a label path."""
    h = sha256()
    h.update(str(int(root)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:8], "big")


def derive(root: int, *labels: object) -> random.Random:
    """Return an independent RNG stream for the given label path."""
    return random.Random(derive_seed(root, *labels))
