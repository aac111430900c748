"""Dense univariate polynomials in c over exact rationals.

A CPoly is an integer vector over one denominator: coefficient i (index =
power of c) is num[i] / den.  The form is canonical, so equal
polynomials have equal state:

    num is a tuple of ints with no trailing zeros,
    den is an int > 0 with gcd(den, *num) = 1,
    zero is ((), 1).

Every operation runs on the integers and normalises its result with one
content gcd, which starts from den and stops once it reaches 1.  The
package reads a CPoly only through num and den.  Everything is immutable
and exact; there is no floating-point path.

A streamed report's strings can be split between this process and one
forked worker (split_strings), which is the one place the package starts a
process.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .errors import WorkerError

NEG_INF = float("-inf")


class CPoly:
    """Polynomial in c with exact rational coefficients, canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable = (), den: int = 1):
        """The polynomial sum_i coeffs[i] c^i / den, for rational coeffs and int den > 0."""
        if den <= 0:
            raise ValueError(f"den must be a positive integer, got {den}")
        num = list(coeffs)
        if not all(isinstance(a, int) for a in num):
            fracs = [Fraction(a) for a in num]
            clear = lcm(*(a.denominator for a in fracs))
            num = [a.numerator * (clear // a.denominator) for a in fracs]
            den *= clear
        while num and not num[-1]:
            num.pop()
        g = gcd(den, *num)  # gcd returns at once when it reaches 1
        if g != 1:
            num = [a // g for a in num]
            den //= g
        self.num, self.den = tuple(num), den

    @classmethod
    def _canonical(cls, num: tuple, den: int) -> "CPoly":
        """Wrap a (num, den) pair that is already canonical."""
        p = object.__new__(cls)
        p.num, p.den = num, den
        return p

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "CPoly":
        return CPoly()

    @staticmethod
    def one() -> "CPoly":
        return CPoly((1,))

    @staticmethod
    def monomial(power: int, coeff=1) -> "CPoly":
        if power < 0:
            raise ValueError("power must be >= 0")
        return CPoly([0] * power + [coeff])

    # -- basic queries ------------------------------------------------
    @property
    def coeffs(self) -> tuple:
        """The coefficients as a tuple of Fraction, index = power of c.

        Its only reader is perfbench/traced.py; it goes once that reads num/den.
        """
        return tuple(Fraction(a, self.den) for a in self.num)

    @property
    def degree(self):
        """Degree, -inf for the zero polynomial."""
        return len(self.num) - 1 if self.num else NEG_INF

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __len__(self) -> int:
        return len(self.num)

    # -- arithmetic ---------------------------------------------------
    def combine(self, other: "CPoly", a: int, b: int, div: int = 1) -> "CPoly":
        """(a * self + b * other) / div for ints a, b and div > 0.

        Formed over lcm of the two denominators times div, normalised once.
        """
        den = lcm(self.den, other.den)
        fa, fb = a * (den // self.den), b * (den // other.den)
        out = [fa * x for x in self.num]
        out.extend([0] * (len(other.num) - len(out)))
        for i, y in enumerate(other.num):
            out[i] += fb * y
        return CPoly(out, den * div)

    # + and - read an int on the right as a constant polynomial
    def __add__(self, other) -> "CPoly":
        return self.combine(other if isinstance(other, CPoly) else CPoly((other,)), 1, 1)

    def __sub__(self, other) -> "CPoly":
        return self.combine(other if isinstance(other, CPoly) else CPoly((other,)), 1, -1)

    def __neg__(self) -> "CPoly":
        return CPoly._canonical(tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, CPoly):
            if not self.num or not other.num:
                return CPoly()
            out = [0] * (len(self.num) + len(other.num) - 1)
            for i, a in enumerate(self.num):
                if a:
                    for j, b in enumerate(other.num):
                        out[i + j] += a * b
            return CPoly(out, self.den * other.den)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s) -> "CPoly":
        """s * self for a rational s; an int s builds no Fraction."""
        if not isinstance(s, int):
            s = Fraction(s)
        return CPoly([a * s.numerator for a in self.num], self.den * s.denominator)

    def shift(self, powers: int) -> "CPoly":
        """Multiply by c**powers."""
        if not self.num:
            return self
        return CPoly._canonical((0,) * powers + self.num, self.den)

    def derive(self, order: int = 1) -> "CPoly":
        """Exact order-th derivative."""
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = self.num
        for _ in range(order):
            cs = [cs[i] * i for i in range(1, len(cs))]
        return CPoly(cs, self.den)

    def band(self, diag, sub2, sub4=None) -> "CPoly":
        """Image under c^s -> diag(s) c^s + sub2(s) c^(s-2) + sub4(s) c^(s-4).

        diag, sub2 and sub4 are functions of the power s with integer values
        (every caller scales its symbols to integers), so the result is formed
        over den; coefficient s of it is diag(s) p[s] + sub2(s+2) p[s+2]
        + sub4(s+4) p[s+4].  Every operator in the package has this shape.
        """
        cs = self.num
        out = [0] * len(cs)
        for f, lower in ((diag, 0), (sub2, 2), (sub4, 4)):
            if f is not None:
                for s in range(lower, len(cs)):
                    if cs[s]:
                        out[s - lower] += f(s) * cs[s]
        return CPoly(out, self.den)

    # -- equality / hashing / display ----------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, CPoly) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        terms = []
        for i, a in enumerate(self.to_strings()):
            if a != "0":
                power = "c" if i == 1 else f"c^{i}"
                terms.append(a if i == 0 else power if a == "1" else f"{a}*{power}")
        return "CPoly(" + (" + ".join(terms) or "0") + ")"

    # -- serialization --------------------------------------------------
    def to_strings(self) -> "RationalStrings":
        """JSON form: "p/q" in lowest terms ("p" when q = 1), index = power of c."""
        den = self.den
        if den == 1:
            return RationalStrings(map(str, self.num))
        out = RationalStrings()
        for a in self.num:
            g = gcd(a, den)
            out.append(str(a // g) if g == den else f"{a // g}/{den // g}")
        return out


class RationalStrings(list):
    r"""to_strings' list: each entry matches -?\d+(/\d+)? by construction.

    The report writer reads the type as proof that no entry needs a JSON
    escape, and joins the entries without scanning them.
    """

    __slots__ = ()


class LazyJSON(list):
    """A report list that the report writer reads as map(encode, source()).

    Nothing is stored: each iteration calls source() for a fresh iterator
    and yields encode(item) one at a time, and the report writer iterates
    it like any list.  A large report's strings, and the items of a source
    that generates them, are therefore built as the report is written, and
    none is kept.  len is given in advance, as the writer and json's
    encoders ask it first.  == raises, since the empty storage would make
    any two equal: compare list(...) of them.
    """

    __slots__ = ("source", "encode", "length")

    def __init__(self, source, encode, length: int):
        super().__init__()
        self.source, self.encode, self.length = source, encode, length

    def __iter__(self):
        return map(self.encode, self.source())

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other):
        raise TypeError("a LazyJSON stores nothing to compare; compare list(...) of it")

    __ne__ = __eq__


SIGKILL = 9  # fixed by POSIX; the signal module would cost every process start an import


def _can_fork_worker() -> bool:
    """True when os.fork exists, this process runs one thread (a fork copies
    no other thread, nor releases the locks one holds), and it may run on at
    least two CPUs."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this system
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _received(reader) -> str:
    """The worker's next line, without its newline; WorkerError when its data ends."""
    line = reader.readline()
    if not line.endswith("\n"):
        raise WorkerError("the worker writing coefficient strings ended early")
    return line[:-1]


def _workers_share(items, poly):
    """(item, p = poly(item), whether the worker builds p's strings), in order:
    the worker builds every other nonzero member's, the 2nd, 4th, ..."""
    nonzero = 0
    for item in items:
        p = poly(item)
        yield item, p, bool(p) and nonzero % 2 == 1
        nonzero += bool(p)


def _fork_worker(items, poly):
    """Fork the worker on its copy of items; return its pid and a reader of its pipe.

    The worker writes each of its members as a count line and one line per
    entry, flushed per member, so this process never waits on a buffer.  It
    writes nothing else, and leaves only through os._exit, so no inherited
    buffer is flushed and no caller's cleanup runs twice.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, encoding="ascii")
    code = 1
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "w", encoding="ascii") as out:
            for _, p, theirs in _workers_share(items, poly):
                if theirs:
                    strings = p.to_strings()
                    print(len(strings), *strings, sep="\n", file=out, flush=True)
        code = 0
    finally:
        os._exit(code)


def split_strings(source, poly=lambda item: item):
    """A re-callable source of (item, poly(item).to_strings()), in source's order.

    source is LazyJSON's: each call returns a fresh iterator over the same
    deterministic items.  With a second CPU, each iteration forks one worker
    that walks its own copy of the iterator and builds the strings of every
    other nonzero member; this process builds the rest, reads the worker's
    line by line (holding one member's strings at a time, as when it builds
    them), and kills and reaps the worker on every way out.  Without a
    second CPU this process builds every member's strings.
    """
    def pairs():
        items = source()
        pid, reader = _fork_worker(items, poly) if _can_fork_worker() else (None, None)
        try:
            for item, p, theirs in _workers_share(items, poly):
                if reader and theirs:
                    count = int(_received(reader))
                    strings = RationalStrings(_received(reader) for _ in range(count))
                else:
                    strings = p.to_strings()
                yield item, strings
        finally:
            if reader:
                reader.close()
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    return pairs
