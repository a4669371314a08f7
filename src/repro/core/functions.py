"""Meta functions of Table 1 (paper §4.4.1) and single-example induction.

A *meta function* is a parameterized family of string transformations; a
*function* is one instantiation. ``psi`` is the description length: the
number of data values needed to instantiate the function from its meta
function (Def. 3.9 of the paper; a value mapping with n entries has
psi = 2n, matching the worked cost c(E1) = 77 in the paper).

Semantics follow the paper's running example: pattern functions fall back
to identity when the pattern does not match (``'9999123'x -> '2018070'x,
otherwise x -> x``); numeric functions behave as identity on values that do
not parse as numbers. All functions map ``str -> str`` and ``None -> None``.

Induction (`induce_candidates`) generates, from a single input-output
example, every instantiation of every supported meta function that maps the
input to the output — the primitive Affidavit applies to noisy examples
sampled from blocks (§4.4.2). Every emitted candidate is verified against
its generating example.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from os.path import commonprefix

import numpy as np
import pandas as pd

__all__ = [
    "TransformFunction",
    "Identity",
    "Uppercasing",
    "Lowercasing",
    "ConstantValue",
    "Addition",
    "Scale",
    "FrontMasking",
    "BackMasking",
    "FrontCharTrimming",
    "BackCharTrimming",
    "Prefixing",
    "Suffixing",
    "PrefixReplacement",
    "SuffixReplacement",
    "ValueMapping",
    "parse_number",
    "format_number",
    "induce_candidates",
]


def parse_number(s: str | None) -> float | None:
    """Parse ``s`` as a finite float, else None. Rejects inf/nan spellings."""
    if s is None:
        return None
    s = s.strip()
    if not s:
        return None
    try:
        v = float(s)
    except ValueError:
        return None
    if not math.isfinite(v):
        return None
    return v


def format_number(v: float) -> str:
    """Canonical decimal rendering: shortest positional form, no trailing
    zeros, integers without a decimal point (80.0 -> '80', 0.065 -> '0.065').

    Values are first rounded to 12 significant digits so float artifacts
    (425000 * 0.001 = 425.00000000000006) collapse to the intended value.
    The instance generator and the induced functions share this formatter,
    so a function learned from one example reproduces every other target
    value exactly.
    """
    if v == 0:
        return "0"
    v = round(v, 12 - 1 - math.floor(math.log10(abs(v))))
    if v == 0:
        return "0"
    return np.format_float_positional(v, trim="-", unique=True)


def _snap(y: float) -> float:
    """Snap a parameter derived from float arithmetic to a nearby round
    value so that e.g. 6.54/6540 becomes exactly 1/1000."""
    r = round(y)
    if abs(y - r) <= 1e-9 * max(1.0, abs(y)):
        return float(r)
    if y != 0:
        inv = 1.0 / y
        ri = round(inv)
        if ri != 0 and abs(inv - ri) <= 1e-9 * abs(inv):
            return 1.0 / ri
    return y


@dataclass(frozen=True)
class TransformFunction:
    """Base class: one instantiated attribute function f: str -> str.

    A subclass defines the function once, as ``_apply`` on one non-null
    value; null maps to null here, for the scalar and the vectorised path.
    """

    @property
    def psi(self) -> int:
        """Description length: number of instantiation parameters."""
        raise NotImplementedError

    def _apply(self, x: str) -> str:
        raise NotImplementedError

    def apply(self, x: str | None) -> str | None:
        return None if x is None else self._apply(x)

    def apply_series(self, s: pd.Series) -> pd.Series:
        """Vectorized application for pandas-UDF use."""
        return s.map(self._apply, na_action="ignore")

    def signature(self) -> str:
        """Stable identity string for deduplication and state signatures."""
        return repr(self)


@dataclass(frozen=True)
class Identity(TransformFunction):
    psi = 0

    def _apply(self, x):
        return x


@dataclass(frozen=True)
class Uppercasing(TransformFunction):
    psi = 0

    def _apply(self, x):
        return x.upper()


@dataclass(frozen=True)
class Lowercasing(TransformFunction):
    """Inverse variant of uppercasing."""

    psi = 0

    def _apply(self, x):
        return x.lower()


@dataclass(frozen=True)
class ConstantValue(TransformFunction):
    c: str
    psi = 1

    def _apply(self, x):
        return self.c


@dataclass(frozen=True)
class Addition(TransformFunction):
    """x -> x + y on numeric values; identity on non-numeric. Subtraction
    is the inverse variant (negative y)."""

    y: float
    psi = 1

    def _apply(self, x):
        v = parse_number(x)
        return x if v is None else format_number(v + self.y)


@dataclass(frozen=True)
class Scale(TransformFunction):
    """x -> x * factor on numeric values; identity on non-numeric.
    Covers the paper's Division (factor = 1/y) and its inverse
    (multiplication)."""

    factor: float
    psi = 1

    def _apply(self, x):
        v = parse_number(x)
        return x if v is None else format_number(v * self.factor)


@dataclass(frozen=True)
class FrontMasking(TransformFunction):
    """.{|m|} . x -> m . x : overwrite the first |m| characters with the
    mask m; identity when the value is shorter than the mask."""

    m: str
    psi = 1

    def _apply(self, x):
        return self.m + x[len(self.m):] if len(x) >= len(self.m) else x


@dataclass(frozen=True)
class BackMasking(TransformFunction):
    """Inverse variant: overwrite the last |m| characters."""

    m: str
    psi = 1

    def _apply(self, x):
        return x[: len(x) - len(self.m)] + self.m if len(x) >= len(self.m) else x


@dataclass(frozen=True)
class FrontCharTrimming(TransformFunction):
    """[c]* . x -> x : strip the leading run of character c."""

    c: str
    psi = 1

    def _apply(self, x):
        return x.lstrip(self.c)


@dataclass(frozen=True)
class BackCharTrimming(TransformFunction):
    """Inverse variant: strip the trailing run of character c."""

    c: str
    psi = 1

    def _apply(self, x):
        return x.rstrip(self.c)


@dataclass(frozen=True)
class Prefixing(TransformFunction):
    y: str
    psi = 1

    def _apply(self, x):
        return self.y + x


@dataclass(frozen=True)
class Suffixing(TransformFunction):
    """Inverse variant of prefixing."""

    y: str
    psi = 1

    def _apply(self, x):
        return x + self.y


@dataclass(frozen=True)
class PrefixReplacement(TransformFunction):
    """y . x -> z . x when the value starts with y, otherwise identity."""

    y: str
    z: str
    psi = 2

    def _apply(self, x):
        return self.z + x[len(self.y):] if x.startswith(self.y) else x


@dataclass(frozen=True)
class SuffixReplacement(TransformFunction):
    """Inverse variant: x . y -> x . z when the value ends with y."""

    y: str
    z: str
    psi = 2

    def _apply(self, x):
        return x[: len(x) - len(self.y)] + self.z if x.endswith(self.y) else x


@dataclass(frozen=True)
class ValueMapping(TransformFunction):
    """Explicit per-value map; unmapped values pass through unchanged.
    psi = 2n (each entry costs its source and its target value) — this is
    what makes maps the most expensive explanation and drives the MDL
    trade-off."""

    entries: tuple[tuple[str, str], ...] = field(default=())

    @property
    def psi(self) -> int:
        return 2 * len(self.entries)

    @cached_property
    def _map(self) -> dict[str, str]:
        return dict(self.entries)

    def _apply(self, x):
        return self._map.get(x, x)

    def __repr__(self):
        # Entries can be large, so the signature carries a content digest;
        # unlike ``hash()`` it does not change with the Python hash salt.
        h = hashlib.blake2b(repr(self.entries).encode(), digest_size=8)
        return f"ValueMapping(n={len(self.entries)}, h={h.hexdigest()})"


def induce_candidates(in_v: str, out_v: str) -> list[TransformFunction]:
    """All meta-function instantiations learnable from the single example
    ``in_v -> out_v`` (§4.4.1: every supported meta function is learnable
    from one example). Candidates are proposed from the example's shape,
    and only those that reproduce the example are returned. Value mappings
    are deliberately *not* induced here — they are resolved from greedy
    alignments at the end of the search (§4.4.1 last para).
    """
    if in_v is None or out_v is None:
        return []
    if in_v == out_v:
        return [Identity(), ConstantValue(out_v)]
    cands: list[TransformFunction] = [Uppercasing(), Lowercasing(), ConstantValue(out_v)]

    iv, ov = parse_number(in_v), parse_number(out_v)
    if iv is not None and ov is not None:
        if (y := _snap(ov - iv)) != 0:
            cands.append(Addition(y))
        if iv != 0 and ov != 0 and (f := _snap(ov / iv)) != 1:
            cands.append(Scale(f))

    n, m = len(in_v), len(out_v)
    pre = len(commonprefix([in_v, out_v]))
    suf = len(commonprefix([in_v[::-1], out_v[::-1]]))
    if n == m:
        # Minimal masks: up to the longest common suffix/prefix.
        cands += [FrontMasking(out_v[: m - suf]), BackMasking(out_v[pre:])]
    if n > m:
        # Char trimming strips the maximal run of the first/last character.
        cands += [FrontCharTrimming(in_v[0]), BackCharTrimming(in_v[-1])]
    if m > n:
        cands += [Prefixing(out_v[: m - n]), Suffixing(out_v[n:])]
    # Prefix/suffix replacement keeps the longest common suffix/prefix
    # (minimal parameters; matches the paper's '9999123'x -> '2018070'x).
    # Both guards are needed: without a common part, or with an empty y,
    # the replacement would reproduce the example and pass the filter.
    if 0 < suf < n:
        cands.append(PrefixReplacement(in_v[: n - suf], out_v[: m - suf]))
    if 0 < pre < n:
        cands.append(SuffixReplacement(in_v[pre:], out_v[pre:]))

    return [f for f in cands if f.apply(in_v) == out_v]
