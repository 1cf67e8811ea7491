"""Binary dropout signals and the support partial order.

A signal is a fixed-length word over {0, 1}: bit 1 marks a successful
transmission, bit 0 a packet dropout.  Signals of equal length are
partially ordered by support inclusion; the minimal elements of the
admissible set are the worst-case candidates for every monotone
performance measure.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Signal",
    "SignalSet",
    "dominates",
    "minimal_filter",
    "is_minimal_k",
]

_BIT = {"0": 0, "1": 1}


class Signal:
    """Immutable binary word sigma(0) ... sigma(T-1), T >= 1.

    The word is kept as its string of '0' and '1', which reports write as
    it is; the bits are read from it.  Lexicographic order on the strings
    is the order on the bit tuples.
    """

    __slots__ = ("_text",)

    def __init__(self, bits: Iterable[int] | str):
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

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(map(_BIT.__getitem__, self._text))

    @classmethod
    def ones(cls, length: int) -> "Signal":
        return cls((1,) * length)

    @classmethod
    def zeros(cls, length: int) -> "Signal":
        return cls((0,) * length)

    def support(self) -> tuple[int, ...]:
        """Indices of successful transmissions."""
        return tuple(i for i, b in enumerate(self._text) if b == "1")

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

    def __eq__(self, other) -> bool:
        return isinstance(other, Signal) and self._text == other._text

    def __hash__(self) -> int:
        return hash(self._text)

    def __lt__(self, other: "Signal") -> bool:
        # lexicographic; used only for canonical ordering of reports
        return self._text < other._text

    def __setattr__(self, name, value):
        raise AttributeError("Signal is immutable")


# writes a Signal's slot past its validating constructor and its __setattr__
_set_text = Signal._text.__set__


class SignalSet:
    """Finite duplicate-free set of equal-length signals.

    Iteration order is canonical (lexicographic) so that downstream
    reports and tie-breaking are deterministic.
    """

    __slots__ = ("_signals", "_index", "_bits")

    def __init__(self, signals: Iterable[Signal]):
        # keyed by the bit strings, so hashing and sorting stay in C
        index: dict[str, Signal] = {}
        for s in signals:
            if not isinstance(s, Signal):
                s = Signal(s)
            index[s._text] = s
        keys = sorted(index)
        if keys:
            T = len(keys[0])
            if any(len(b) != T for b in keys):
                raise ValueError("signals in a set must share one length")
        object.__setattr__(self, "_signals", tuple(map(index.__getitem__, keys)))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_bits", None)

    @classmethod
    def _from_array(cls, bits: np.ndarray) -> "SignalSet":
        """The set of the rows of an (N, T) bool array, trusted as given.

        The rows must be distinct and in lexicographic order, as the
        automata's level walk makes them: nothing is validated, deduplicated
        or sorted.  The array is kept, read-only, for to_array.
        """
        N, T = bits.shape
        text = (bits.view(np.uint8) + ord("0")).tobytes().decode("ascii")
        index: dict[str, Signal] = {}
        for i in range(0, N * T, T):
            word = text[i : i + T]
            s = index[word] = object.__new__(Signal)
            _set_text(s, word)
        self = object.__new__(cls)
        object.__setattr__(self, "_signals", tuple(index.values()))
        object.__setattr__(self, "_index", index)
        bits = bits.view()
        bits.flags.writeable = False
        object.__setattr__(self, "_bits", bits)
        return self

    @property
    def signals(self) -> tuple[Signal, ...]:
        return self._signals

    @property
    def length(self) -> int:
        if not self._signals:
            raise ValueError("empty signal set has no length")
        return len(self._signals[0])

    def to_strings(self) -> tuple[str, ...]:
        return tuple(str(s) for s in self._signals)

    def to_array(self) -> np.ndarray:
        """The signals as rows of an (N, T) bool array, in iteration order."""
        if self._bits is not None:
            return self._bits
        texts = [s._text for s in self._signals]
        codes = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8)
        return (codes == ord("1")).reshape(len(texts), len(texts[0]) if texts else 0)

    def __contains__(self, s) -> bool:
        if isinstance(s, str):
            s = Signal(s)
        return isinstance(s, Signal) and s._text in self._index

    def __iter__(self) -> Iterator[Signal]:
        return iter(self._signals)

    def __len__(self) -> int:
        return len(self._signals)

    def __eq__(self, other) -> bool:
        return isinstance(other, SignalSet) and self._index.keys() == other._index.keys()

    def __repr__(self) -> str:
        return f"SignalSet({list(self.to_strings())})"

    def __setattr__(self, name, value):
        raise AttributeError("SignalSet is immutable")


def dominates(s1: Signal, s2: Signal) -> bool:
    """True iff s1 precedes s2 in the support order (s1's 1s are s2's 1s)."""
    if len(s1) != len(s2):
        raise ValueError(f"length mismatch: {len(s1)} vs {len(s2)}")
    return all(b1 <= b2 for b1, b2 in zip(s1.bits, s2.bits))


def _pack(ss: SignalSet) -> np.ndarray:
    bits = ss.to_array().astype(np.uint64)
    weights = (np.uint64(1) << np.arange(len(ss.signals[0]), dtype=np.uint64))
    return bits @ weights


def minimal_filter(ss: SignalSet) -> SignalSet:
    """Minimal elements of ss under the support order (brute-force filter).

    Keeps s iff no other member's support is strictly contained in s's.
    Relative to the given set only; pass the full admissible set to get
    the worst-case candidates.
    """
    sigs = ss.signals
    if len(sigs) <= 1:
        return SignalSet(sigs)
    if len(sigs[0]) <= 63:
        packed = _pack(ss)
        keep = []
        for i, code in enumerate(packed):
            below = (packed & ~code) == 0  # support containment
            if int(below.sum()) == 1:  # only s itself
                keep.append(sigs[i])
    else:
        bits = ss.to_array()
        keep = []
        for i in range(len(sigs)):
            below = ~(bits & ~bits[i]).any(axis=1)
            if int(below.sum()) == 1:
                keep.append(sigs[i])
    return SignalSet(keep)


def is_minimal_k(s: Signal, k: int) -> bool:
    """Minimality test for the at-most-k-consecutive-dropouts constraint.

    A signal is minimal iff it is admissible (no k+1 consecutive zeros)
    and each 1 bit is surrounded by at least k zeros, counting p zeros
    immediately before and q immediately after.  Positions beyond the
    horizon contribute nothing, so a trailing 1 needs its k zeros inside
    the signal.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    bits = s.bits
    T = len(bits)
    run = 0
    for b in bits:
        run = run + 1 if b == 0 else 0
        if run > k:
            return False
    for i, b in enumerate(bits):
        if b != 1:
            continue
        p = 0
        j = i - 1
        while j >= 0 and bits[j] == 0:
            p += 1
            j -= 1
        q = 0
        j = i + 1
        while j < T and bits[j] == 0:
            q += 1
            j += 1
        if p + q < k:
            return False
    return True
