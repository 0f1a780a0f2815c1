"""Mergeable sketch accumulators for sharded analysis.

A sketch supports three operations with the same shape as every
engine state:

* ``add(item)`` — fold one observation in, O(1);
* ``merge(other)`` — combine two partial states such that
  ``merge(A(x), A(y)) == A(x + y)``;
* pickling — partial states travel across process boundaries and
  into checkpoint files.

:class:`HyperLogLog` estimates unique counts with relative standard
error ``1.04 / sqrt(2**precision)`` (~0.8% at the default
``precision=14``, 16 KiB of registers).  It rides in
:class:`~repro.engine.state.CharacterizationState` beside the exact
client set, so ``engine-bench`` can report the sketch's error against
the exact count.

All hashing uses :func:`stable_hash64` (keyed BLAKE2b), never the
process-salted builtin ``hash`` — sketch states built in different
worker processes must agree on where an item lands.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Iterable

__all__ = ["stable_hash64", "HyperLogLog"]

_HASH_BITS = 64


def stable_hash64(value: str, salt: bytes = b"") -> int:
    """Process-stable 64-bit hash of a string.

    The builtin ``hash`` is salted per interpreter (PYTHONHASHSEED),
    so sketch registers filled in different worker processes would
    disagree; BLAKE2b is stable everywhere and fast enough.
    """
    return int.from_bytes(
        blake2b(value.encode("utf-8"), digest_size=8, key=salt).digest(), "big"
    )


class HyperLogLog:
    """HyperLogLog unique-count estimator (Flajolet et al. 2007).

    ``precision`` register-index bits give ``m = 2**precision``
    one-byte registers and relative standard error
    ``1.04 / sqrt(m)``.  Merging takes the register-wise max, so a
    merged sketch equals the sketch of the concatenated streams —
    the property the sharded engine relies on.
    """

    __slots__ = ("precision", "registers")

    def __init__(self, precision: int = 14) -> None:
        if not 4 <= precision <= 18:
            raise ValueError("precision must be in [4, 18]")
        self.precision = precision
        self.registers = bytearray(1 << precision)

    @property
    def num_registers(self) -> int:
        return 1 << self.precision

    @property
    def relative_error(self) -> float:
        """Expected relative standard error of :meth:`estimate`."""
        return 1.04 / (self.num_registers ** 0.5)

    def add(self, value: str) -> None:
        hashed = stable_hash64(value)
        index = hashed >> (_HASH_BITS - self.precision)
        remainder = hashed & ((1 << (_HASH_BITS - self.precision)) - 1)
        # Rank: position of the highest set bit in the remainder,
        # counted from the MSB side of the (64 - p)-bit word, 1-based.
        rank = (_HASH_BITS - self.precision) - remainder.bit_length() + 1
        if rank > self.registers[index]:
            self.registers[index] = rank

    def update(self, values: Iterable[str]) -> "HyperLogLog":
        for value in values:
            self.add(value)
        return self

    def estimate(self) -> float:
        m = self.num_registers
        inverse_sum = 0.0
        zeros = 0
        for register in self.registers:
            inverse_sum += 2.0 ** -register
            if register == 0:
                zeros += 1
        alpha = 0.7213 / (1.0 + 1.079 / m)
        raw = alpha * m * m / inverse_sum
        if raw <= 2.5 * m and zeros:
            # Small-range correction: linear counting is more accurate
            # while most registers are untouched.
            import math

            return m * math.log(m / zeros)
        return raw

    def __len__(self) -> int:
        return int(round(self.estimate()))

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        if other.precision != self.precision:
            raise ValueError(
                f"cannot merge HLL precisions {self.precision} != {other.precision}"
            )
        for index, register in enumerate(other.registers):
            if register > self.registers[index]:
                self.registers[index] = register
        return self
