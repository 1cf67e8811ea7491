"""Binary dropout signals and sets of them.

A signal is a fixed-length word over {0, 1}: bit 1 marks a successful
transmission, bit 0 a packet dropout.  Signals of equal length are
partially ordered by support inclusion, and automata.minimal_admissible
generates the minimal admissible ones, the worst-case candidates for
every monotone performance measure.  A set of signals is one read-only
(N, T) bool array, and this module alone converts between words and
bits: Signals and strings are decoded from the array's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = ["Signal", "SignalSet"]

_BIT = {"0": 0, "1": 1}


@dataclass(frozen=True, order=True)
class Signal:
    """Immutable binary word sigma(0) ... sigma(T-1), T >= 1.

    Built from a string of '0' and '1' or from an iterable of bits.  The
    word is kept as its string, which reports write as it is; the bits are
    read from it.  Signals compare by that string, whose lexicographic
    order is the order on the bit tuples.
    """

    # declared by hand: dataclass(slots=True) makes a second class, whose
    # frozen __setattr__ raises TypeError, not AttributeError, on a name
    # that is not a field, and a slotted instance keeps no __dict__ to
    # restore when unpickled, so __reduce__ rebuilds it from its word
    __slots__ = ("_text",)
    _text: str

    def __post_init__(self):
        bits = self._text
        if isinstance(bits, str):
            if not bits or bits.strip("01"):
                raise ValueError(f"not a bit string: {bits!r}")
            text = str(bits)
        else:
            vals = tuple(int(b) for b in bits)
            if not vals or any(b not in (0, 1) for b in vals):
                raise ValueError("signal bits must be 0/1 and nonempty")
            text = "".join(map(str, vals))
        object.__setattr__(self, "_text", text)

    def __reduce__(self):
        return Signal, (self._text,)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(map(_BIT.__getitem__, self._text))

    @classmethod
    def ones(cls, length: int) -> "Signal":
        return cls((1,) * length)

    @classmethod
    def zeros(cls, length: int) -> "Signal":
        return cls((0,) * length)

    def count_ones(self) -> int:
        return self._text.count("1")

    def __len__(self) -> int:
        return len(self._text)

    def __getitem__(self, i):
        return self.bits[i]

    def __iter__(self) -> Iterator[int]:
        return map(_BIT.__getitem__, self._text)

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"Signal('{self}')"


@dataclass(frozen=True, init=False, eq=False, repr=False)
class SignalSet:
    """Finite duplicate-free set of equal-length signals, kept as bits.

    The set is one read-only (N, T) bool array whose rows are the distinct
    words in lexicographic order, so downstream reports and tie-breaking
    are deterministic.  Signals and strings are decoded from it on demand.
    """

    _bits: np.ndarray

    def __init__(self, signals: Iterable[Signal]):
        words = sorted({s._text if isinstance(s, Signal) else Signal(s)._text for s in signals})
        T = len(words[0]) if words else 0
        if any(len(w) != T for w in words):
            raise ValueError("signals in a set must share one length")
        codes = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8)
        self.__setstate__((codes == ord("1")).reshape(len(words), T))

    @classmethod
    def _from_array(cls, bits: np.ndarray) -> "SignalSet":
        """The set of the rows of an (N, T) bool array, trusted as given.

        The rows must be distinct and in lexicographic order, as the
        automata's level walk makes them; nothing is checked or sorted.
        """
        self = object.__new__(cls)
        self.__setstate__(bits)
        return self

    def __getstate__(self) -> np.ndarray:
        return self._bits

    def __setstate__(self, bits: np.ndarray) -> None:
        """Keep a read-only view of bits as the rows.

        Construction, unpickling and copying all store the rows here, so
        the array that pickle or deepcopy restores, which is writable,
        is read-only again.
        """
        bits = bits.view()
        bits.flags.writeable = False
        object.__setattr__(self, "_bits", bits)

    @property
    def signals(self) -> tuple[Signal, ...]:
        return tuple(self)

    @property
    def length(self) -> int:
        if not len(self):
            raise ValueError("empty signal set has no length")
        return self._bits.shape[1]

    def to_strings(self) -> tuple[str, ...]:
        N, T = self._bits.shape
        text = (self._bits.view(np.uint8) + ord("0")).tobytes().decode("ascii")
        return tuple(text[i : i + T] for i in range(0, N * T, T or 1))

    def to_array(self) -> np.ndarray:
        """The signals as rows of a read-only (N, T) bool array, in iteration order."""
        return self._bits

    def __contains__(self, s) -> bool:
        if isinstance(s, str):
            s = Signal(s)
        return isinstance(s, Signal) and s._text in self.to_strings()

    def __iter__(self) -> Iterator[Signal]:
        # the rows are valid words: each Signal is made past its constructor's check
        for word in self.to_strings():
            s = object.__new__(Signal)
            object.__setattr__(s, "_text", word)
            yield s

    def __len__(self) -> int:
        return len(self._bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, SignalSet) and self.to_strings() == other.to_strings()

    def __repr__(self) -> str:
        return f"SignalSet({list(self.to_strings())})"
