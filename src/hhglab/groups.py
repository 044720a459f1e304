"""Finitely generated group models with solvable word problem.

A word is a tuple of letters; generator i contributes the letter 2*i and
its inverse the letter 2*i + 1, so ``letter ^ 1`` is the inverse letter.
Every family exposes a normal form that is geodesic for the standard
generating set, hence ``len(normal_form(w))`` is the word length.

A word inside the package is a normal-form tuple.  A word becomes one
where it enters: ``normal_form`` checks every letter (an int, not a bool,
in range) and hands the word to the family's ``_reduce``, which expects
in-range letters and returns the normal form; ``parse`` builds its letters
from the labels, so it reduces without checking.  Every other operation
(multiply, conjugate, power, exponents, factor_word) takes normal forms and
never reduces them again.  ``inverse`` reduces the reversed word once: the
reversed word of a normal form need not be one (in Z^2 the inverse of ab
is AB, not BA).

``multiply(u, v)`` is the family's ``_product``, which only works at the
junction where the two words meet (free cancellation, exponent sums, the
factor blocks v touches, the syllables that merge).  It trusts that u and
v are normal forms and never checks it: on other words its result is
wrong.  ``_reduce`` is the reference it is tested against.  The Cayley-ball
BFS, the freeness oracles and ``power`` call ``_product`` directly.

``FreeProduct.syllables`` is the free-product reducer: it splits any word
with in-range letters into the syllables of its normal form, so a caller
can read u^-1 v off the raw concatenation without forming u^-1 first.

Families: free, free abelian, direct products and free products of the
above.  Labels are single lowercase ASCII letters; the compact string
form writes inverses as uppercase ("caC" is c a c^-1, "1" is the
identity).
"""

from __future__ import annotations

import string
from bisect import bisect_left

from .errors import InputError, WrongKindError

Word = tuple[int, ...]

IDENTITY: Word = ()


def invert_word(w: Word) -> Word:
    return tuple(x ^ 1 for x in reversed(w))


class GroupModel:
    """Base class: a marked group with normal forms.

    Subclasses must set self.ngens, self.labels and implement _reduce and
    _product.  All other operations are derived.
    """

    family = "abstract"

    ngens: int
    labels: list[str]
    # True when _product only compares letters and inverts them (x ^ 1):
    # then it multiplies words whose letters all carry the same even offset
    # without shifting them, as a factor of a product sees them
    shift_free = False

    def _check_labels(self):
        if len(self.labels) != self.ngens:
            raise InputError("need one label per generator")
        for lab in self.labels:
            if len(lab) != 1 or lab not in string.ascii_lowercase:
                raise InputError(f"label {lab!r} must be a single lowercase letter")
        if len(set(self.labels)) != self.ngens:
            raise InputError("labels must be distinct")

    def check_word(self, w) -> Word:
        try:
            w = tuple(w)
        except TypeError:
            raise InputError(f"word {w!r} is not a sequence of letters") from None
        for x in w:
            if not is_int(x) or not 0 <= x < 2 * self.ngens:
                raise InputError(f"letter {x!r} out of range for {self.ngens} generators")
        return w

    def normal_form(self, w) -> Word:
        """Normal form of a word from outside the package; InputError on a
        bad letter."""
        return self._reduce(self.check_word(w))

    def _reduce(self, w: Word) -> Word:
        """Normal form of a word whose letters are in range."""
        raise NotImplementedError

    def _product(self, u: Word, v: Word) -> Word:
        """Normal form of u·v for normal forms u and v."""
        raise NotImplementedError

    def multiply(self, u: Word, v: Word) -> Word:
        """Normal form of u·v for normal forms u and v."""
        return self._product(u, v)

    def inverse(self, w: Word) -> Word:
        return self._reduce(invert_word(w))

    def conjugate(self, t: Word, g: Word) -> Word:
        """t g t^-1."""
        return self.multiply(self.multiply(t, g), self.inverse(t))

    def power(self, w: Word, n: int) -> Word:
        if n < 0:
            return self.power(self.inverse(w), -n)
        acc: Word = IDENTITY
        while n:
            if n & 1:
                acc = self._product(acc, w)
            w = self._product(w, w)
            n >>= 1
        return acc

    def generators(self) -> list[Word]:
        return [(2 * i,) for i in range(self.ngens)]

    def parse(self, text: str) -> Word:
        text = text.strip()
        if text in ("", "1"):
            return IDENTITY
        letters = []
        for ch in text:
            low = ch.lower()
            if low not in self.labels:
                raise InputError(f"unknown generator letter {ch!r} in {text!r}")
            letter = 2 * self.labels.index(low)
            if ch.isupper():
                letter ^= 1
            letters.append(letter)
        return self._reduce(tuple(letters))

    def format(self, w: Word) -> str:
        if not w:
            return "1"
        out = []
        for x in w:
            lab = self.labels[x >> 1]
            out.append(lab.upper() if x & 1 else lab)
        return "".join(out)

    def to_json(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"<{self.family} group on {','.join(self.labels)}>"


class FreeGroup(GroupModel):
    """Free group of given rank; normal form is free reduction."""

    family = "free"
    shift_free = True

    def __init__(self, rank: int, labels=None):
        if rank < 0:
            raise InputError("rank must be nonnegative")
        self.ngens = rank
        self.labels = list(labels) if labels is not None else list(string.ascii_lowercase[:rank])
        self._check_labels()

    def _reduce(self, w: Word) -> Word:
        out = []
        for x in w:
            if out and out[-1] == x ^ 1:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def _product(self, u: Word, v: Word) -> Word:
        # the suffix of u cancels against the prefix of v, nothing else does
        n = len(u)
        k = 0
        while k < n and k < len(v) and u[n - 1 - k] == v[k] ^ 1:
            k += 1
        return u[:n - k] + v[k:]

    def to_json(self) -> dict:
        return {"family": "free", "rank": self.ngens, "labels": list(self.labels)}


class FreeAbelianGroup(GroupModel):
    """Z^rank; normal form sorts letters by generator, inverses cancelled."""

    family = "free_abelian"

    def __init__(self, rank: int, labels=None):
        if rank < 0:
            raise InputError("rank must be nonnegative")
        self.ngens = rank
        if labels is not None:
            self.labels = list(labels)
        elif rank == 1:
            self.labels = ["t"]
        else:
            self.labels = list(string.ascii_lowercase[:rank])
        self._check_labels()
        self.shift_free = rank == 1

    def exponents(self, w: Word) -> list[int]:
        e = [0] * self.ngens
        for x in w:
            e[x >> 1] += -1 if x & 1 else 1
        return e

    def from_exponents(self, e) -> Word:
        if len(e) != self.ngens:
            raise InputError("exponent vector has wrong length")
        out = []
        for i, k in enumerate(e):
            letter = 2 * i if k > 0 else 2 * i + 1
            out.extend([letter] * abs(k))
        return tuple(out)

    def _reduce(self, w: Word) -> Word:
        return self.from_exponents(self.exponents(w))

    def _product(self, u: Word, v: Word) -> Word:
        if not u or not v:
            return u or v
        if self.ngens > 1:
            return self.from_exponents(
                [a + b for a, b in zip(self.exponents(u), self.exponents(v))])
        # rank 1: a normal form is one letter repeated
        if u[0] == v[0]:
            return u + v
        return u[len(v):] if len(u) >= len(v) else v[len(u):]

    def to_json(self) -> dict:
        return {"family": "free_abelian", "rank": self.ngens, "labels": list(self.labels)}


class _CombinedModel(GroupModel):
    """Shared letter bookkeeping for products: factor letters get even offsets."""

    def _init_parts(self, parts):
        if not parts:
            raise InputError("need at least one factor")
        self.parts = list(parts)
        self._offsets = []
        self.labels = []
        off = 0
        for p in self.parts:
            if not isinstance(p, GroupModel):
                raise WrongKindError("factors must be group models")
            self._offsets.append(off)
            self.labels.extend(p.labels)
            off += 2 * p.ngens
        self.ngens = off // 2
        self._bounds = self._offsets + [off]
        self._part_of = []
        for i, p in enumerate(self.parts):
            self._part_of.extend([i] * (2 * p.ngens))
        self._check_labels()

    def to_local(self, part_index: int, w: Word) -> Word:
        off = self._offsets[part_index]
        return tuple(x - off for x in w)

    def to_global(self, part_index: int, w: Word) -> Word:
        off = self._offsets[part_index]
        return tuple(x + off for x in w)

    def _local_product(self, i: int, u: Word, v: Word) -> Word:
        """Product of two factor-i normal forms, in global letters."""
        part = self.parts[i]
        if not self._offsets[i] or part.shift_free:
            return part._product(u, v)
        return self.to_global(i, part._product(self.to_local(i, u), self.to_local(i, v)))


class DirectProduct(_CombinedModel):
    """Direct product; factors commute, normal form concatenates factor forms."""

    family = "direct_product"

    def __init__(self, factors):
        self._init_parts(factors)

    def factor_word(self, w: Word, i: int) -> Word:
        """Block of factor i in the normal form w, in that factor's letters."""
        start = bisect_left(w, self._bounds[i])
        return self.to_local(i, w[start:bisect_left(w, self._bounds[i + 1], start)])

    def _reduce(self, w: Word) -> Word:
        out = []
        for i, part in enumerate(self.parts):
            local = self.to_local(i, [x for x in w if self._part_of[x] == i])
            out.extend(self.to_global(i, part._reduce(local)))
        return tuple(out)

    def _product(self, u: Word, v: Word) -> Word:
        # a normal form lists the factor blocks in order and factor i owns
        # the letters [off_i, off_(i+1)), so bisect finds each block; only
        # the blocks v touches change
        out: Word = ()
        cut = 0  # u[:cut] is already in out
        j = 0
        while j < len(v):
            i = self._part_of[v[j]]
            hi = self._bounds[i + 1]
            j_end = bisect_left(v, hi, j)
            start = bisect_left(u, self._bounds[i], cut)
            end = bisect_left(u, hi, start)
            out += u[cut:start] + self._local_product(i, u[start:end], v[j:j_end])
            cut = end
            j = j_end
        return out + u[cut:]

    def to_json(self) -> dict:
        return {"family": "direct_product", "factors": [p.to_json() for p in self.parts]}


class FreeProduct(_CombinedModel):
    """Free product; normal form is the alternating-syllable form."""

    family = "free_product"

    def __init__(self, factors):
        self._init_parts(factors)
        if len(self.parts) < 2:
            raise InputError("a free product needs at least two factors")

    def _push_syllable(self, stack, fi: int, local: Word):
        while local:
            if stack and stack[-1][0] == fi:
                _, prev = stack.pop()
                local = self.parts[fi]._product(prev, local)
                continue
            stack.append((fi, local))
            return

    def syllables(self, w: Word) -> list[tuple[int, Word]]:
        """Alternating factor syllables of nf(w) as (factor index, local word)."""
        stack = []
        for x in w:
            fi = self._part_of[x]
            self._push_syllable(stack, fi, (x - self._offsets[fi],))
        return stack

    def _reduce(self, w: Word) -> Word:
        out = []
        for fi, local in self.syllables(w):
            out.extend(self.to_global(fi, local))
        return tuple(out)

    def _product(self, u: Word, v: Word) -> Word:
        # merge the last syllable of u with the first of v; when they
        # cancel, the next pair meets
        part_of = self._part_of
        a, b = len(u), 0
        while a and b < len(v):
            fi = part_of[v[b]]
            if part_of[u[a - 1]] != fi:
                break
            start = a - 1
            while start and part_of[u[start - 1]] == fi:
                start -= 1
            end = b + 1
            while end < len(v) and part_of[v[end]] == fi:
                end += 1
            merged = self._local_product(fi, u[start:a], v[b:end])
            if merged:
                return u[:start] + merged + v[end:]
            a, b = start, end
        return u[:a] + v[b:]

    def to_json(self) -> dict:
        return {"family": "free_product", "factors": [p.to_json() for p in self.parts]}


def is_int(x) -> bool:
    """An int that is not a bool, as json integers load."""
    return isinstance(x, int) and not isinstance(x, bool)


def json_field(data: dict, key: str, check, expected: str, owner: str, default=None):
    """data[key] from a json object, or the default when one is given and
    the key is absent; InputError when the key is missing or its value
    fails the check."""
    if key not in data and default is not None:
        return default
    if key not in data:
        raise InputError(f"{owner} json needs a {key!r} key")
    if not check(data[key]):
        raise InputError(f"{owner} json: {key!r} must be {expected}")
    return data[key]


def model_from_json(data: dict) -> GroupModel:
    """Group model from its json form; malformed input raises InputError."""
    if not isinstance(data, dict) or "family" not in data:
        raise InputError("group model json needs a 'family' key")
    fam = data["family"]
    owner = f"{fam} group"

    def factors(key):
        parts = json_field(data, key, lambda v: isinstance(v, list), "a list", owner)
        return [model_from_json(f) for f in parts]

    if fam in ("free", "free_abelian"):
        rank = json_field(data, "rank", is_int, "an integer", owner)
        labels = data.get("labels")
        if labels is not None:
            json_field(data, "labels",
                       lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
                       "a list of strings", owner)
        return (FreeGroup if fam == "free" else FreeAbelianGroup)(rank, labels)
    if fam == "direct_product":
        return DirectProduct(factors("factors"))
    if fam == "free_product":
        return FreeProduct(factors("factors"))
    raise InputError(f"unknown group family {fam!r}")
