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
never reduces them again.  ``inverse`` is the family's ``_inverse``, which
inverts a normal form without reducing it: a free group (and so a free
product) reverses the word and flips each letter; Z^n flips each letter in
place, keeping the generator order (in Z^2 the inverse of ab is AB, not
BA); a direct product inverts each factor block with that factor's kernel
and keeps the blocks in their order.

``multiply(u, v)`` is the family's ``_product``, which only works at the
junction where the two words meet (free cancellation, exponent sums, the
factor blocks v touches).  It trusts that u and v are normal forms and
never checks it: on other words its result is wrong.  ``_reduce`` is the
reference it is tested against.  The Cayley-ball BFS, the freeness oracles
and ``power`` call ``_product`` directly.  ``distance(u, v)``, the length
of u^-1 v, is the family's ``_distance``, which forms no product: |u| + |v|
less twice the common prefix in a free group, the sum of the exponent
differences in Z^n, the sum over the factor blocks in a direct product.

A free product takes free and infinite cyclic factors only, so it is the
free group on all its letters and shares ``FreeGroup``'s kernels.  The
syllables of a normal form, its maximal one-factor runs, are its letters
grouped by ``_part_of``, the factor index of each letter.

Families: free, free abelian, direct products of the above, and free
products of free and infinite cyclic groups.  Labels are single lowercase
ASCII letters; the compact string form writes inverses as uppercase ("caC"
is c a c^-1, "1" is the identity).
"""

from bisect import bisect_left

from .errors import InputError, WrongKindError

Word = tuple[int, ...]

IDENTITY: Word = ()

_LOWERCASE = "abcdefghijklmnopqrstuvwxyz"


def invert_word(w: Word) -> Word:
    return tuple(x ^ 1 for x in reversed(w))


class GroupModel:
    """Base class: a marked group with normal forms.

    Subclasses must set self.ngens, self.labels and implement _reduce,
    _product, _inverse and _distance.  All other operations are derived.
    """

    family = "abstract"

    ngens: int
    labels: list[str]
    # True when _product, _inverse and _distance only compare letters and
    # invert them (x ^ 1): then they take words whose letters all carry the
    # same even offset unshifted, as a factor of a product sees them
    shift_free = False

    def _check_labels(self):
        if len(self.labels) != self.ngens:
            raise InputError("need one label per generator")
        for lab in self.labels:
            if len(lab) != 1 or lab not in _LOWERCASE:
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

    def _inverse(self, w: Word) -> Word:
        """Normal form of w^-1 for a normal form w."""
        raise NotImplementedError

    def multiply(self, u: Word, v: Word) -> Word:
        """Normal form of u·v for normal forms u and v."""
        return self._product(u, v)

    def inverse(self, w: Word) -> Word:
        """Normal form of w^-1 for a normal form w."""
        return self._inverse(w)

    def distance(self, u: Word, v: Word) -> int:
        """Word length of u^-1 v for normal forms u and v."""
        return self._distance(u, v)

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
        self.labels = list(labels) if labels is not None else list(_LOWERCASE[:rank])
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

    def _inverse(self, w: Word) -> Word:
        return invert_word(w)

    def _distance(self, u: Word, v: Word) -> int:
        # u^-1 v is u's tail after the common prefix, inverted, then v's
        common = 0
        for a, b in zip(u, v):
            if a != b:
                break
            common += 1
        return len(u) + len(v) - 2 * common

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
            self.labels = list(_LOWERCASE[:rank])
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

    def _inverse(self, w: Word) -> Word:
        return tuple([x ^ 1 for x in w])

    def _distance(self, u: Word, v: Word) -> int:
        if self.ngens > 1:
            return sum(abs(a - b) for a, b in zip(self.exponents(u), self.exponents(v)))
        # rank 1, at any even offset: one letter repeated, its sign the parity
        return len(u) + len(v) if u and v and u[0] != v[0] else abs(len(u) - len(v))

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

    def _local_product(self, i: int, u: Word, v: Word) -> Word:
        """Product of two factor-i normal forms, in global letters."""
        part = self.parts[i]
        if not self._offsets[i] or part.shift_free:
            return part._product(u, v)
        return self.to_global(i, part._product(self.to_local(i, u), self.to_local(i, v)))

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

    def _inverse(self, w: Word) -> Word:
        out: Word = ()
        start = 0
        while start < len(w):
            i = self._part_of[w[start]]
            end = bisect_left(w, self._bounds[i + 1], start)
            part = self.parts[i]
            if not self._offsets[i] or part.shift_free:
                out += part._inverse(w[start:end])
            else:
                out += self.to_global(i, part._inverse(self.to_local(i, w[start:end])))
            start = end
        return out

    def _distance(self, u: Word, v: Word) -> int:
        total = su = sv = 0  # factor i's blocks start at u[su] and v[sv]
        for i, part in enumerate(self.parts):
            hi = self._bounds[i + 1]
            eu, ev = bisect_left(u, hi, su), bisect_left(v, hi, sv)
            a, b = u[su:eu], v[sv:ev]
            if self._offsets[i] and not part.shift_free:
                a, b = self.to_local(i, a), self.to_local(i, b)
            total += part._distance(a, b)
            su, sv = eu, ev
        return total

    def to_json(self) -> dict:
        return {"family": "direct_product", "factors": [p.to_json() for p in self.parts]}


class FreeProduct(_CombinedModel):
    """Free product of free and infinite cyclic groups: the free group on
    all its letters, so its normal form, free reduction, is also the
    alternating-syllable form."""

    family = "free_product"
    shift_free = True
    _reduce = FreeGroup._reduce
    _product = FreeGroup._product
    _inverse = FreeGroup._inverse
    _distance = FreeGroup._distance

    def __init__(self, factors):
        self._init_parts(factors)
        if len(self.parts) < 2:
            raise InputError("a free product needs at least two factors")
        if not all(isinstance(p, FreeGroup) or (isinstance(p, FreeAbelianGroup) and p.ngens == 1)
                   for p in self.parts):
            raise WrongKindError("factors must be free or infinite cyclic")

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
