"""Closed-form references the tests check the engine's computations against.

Nothing under ``src/`` calls these: each restates a result in the form the
paper gives it, so that agreement with the engine is independent evidence.
"""

from __future__ import annotations

from paramtc.bundle import DdotDescriptor
from paramtc.ring import height


def ddot_euler_height(d: DdotDescriptor) -> int:
    """Height of the complement-bundle Euler class, by the parity rule.

    With h the height of the base Euler class e: even powers collapse to
    ``e^{2m}`` pulled back, odd powers carry a ``2 e^{2m} U`` term, so the
    height is h + 1 when h is even (the base has no 2-torsion, as no base
    does) and h otherwise.  Always equals the direct power computation
    ``lh_height(euler_ddot)``.
    """
    if d.euler_ddot is None:
        raise ValueError("no symbolic Euler class is available for this bundle")
    h = height(d.euler_ddot.module.euler_eta)
    return h + 1 if h % 2 == 0 else h
