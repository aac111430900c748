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

A report array's strings can be built as it is written, split between
this process and one worker that _fork_worker decides on and forks, over
a UTF-8 pipe (split_strings): the one place the package starts a process.
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

    def act(self, table) -> "CPoly":
        """The image of self under the operator sum_i table[i](c) d^i/dc^i.

        Row i of table holds the integer c-coefficients, low power first, of
        the factor of d^i/dc^i, so entry j of row i sends c^s to
        s!/(s-i)! c^(s-i+j).  The result is formed over den and normalised
        once: coefficient s + d of it sums f(s) p[s] over the table's
        shift_symbols (d, f), at the powers s where p[s] != 0.
        """
        cs = self.num
        powers = [s for s, x in enumerate(cs) if x]
        symbols = shift_symbols(table, powers)
        out = [0] * (len(cs) + max([0, *symbols]))
        for d, f in symbols.items():
            for s, v in zip(powers, f):
                if v:  # f(s) = 0 wherever s + d < 0
                    out[s + d] += v * cs[s]
        return CPoly(out, self.den)

    # -- equality / hashing / display ----------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, CPoly) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return shown(self.to_strings())

    # -- serialization --------------------------------------------------
    def to_strings(self) -> "RationalStrings":
        """JSON form: "p/q" in lowest terms ("p" when q = 1), index = power of c."""
        den = self.den
        out = RationalStrings()
        for a in self.num:
            g = gcd(a, den)
            out.append(str(a // g) if g == den else f"{a // g}/{den // g}")
        return out


def shift_symbols(table, powers) -> dict:
    """{d: [f(s) for s in powers]}, where the operator of CPoly.act's table
    sends c^s to the sum over d of f(s) c^(s+d); powers is a list or range
    of ints >= 0.

    f(s) sums table[i][j] s!/(s-i)! over the entries with j - i = d; the
    falling factorial s!/(s-i)! is 0 for s < i.
    """
    entries = [(i, j - i, a) for i, row in enumerate(table) for j, a in enumerate(row) if a]
    symbols = {d: [0] * len(powers) for _, d, _ in entries}
    for t, s in enumerate(powers):
        falling, k = 1, 0  # falling = s!/(s-k)!
        for i, d, a in entries:
            while k < i:
                falling *= s - k
                k += 1
            symbols[d][t] += a * falling
    return symbols


class RationalStrings(list):
    r"""to_strings' list: each entry matches -?\d+(/\d+)? by construction.

    The report writer reads the type as proof that no entry needs a JSON
    escape, and joins the entries without scanning them.
    """

    __slots__ = ()


def shown(strings) -> str:
    """A CPoly's repr, read off its to_strings list: a caller that holds the
    strings builds none again."""
    terms = []
    for i, a in enumerate(strings):
        if a != "0":
            power = "c" if i == 1 else f"c^{i}"
            terms.append(a if i == 0 else power if a == "1" else f"{a}*{power}")
    return "CPoly(" + (" + ".join(terms) or "0") + ")"


SIGKILL = 9  # fixed by POSIX; the signal module would cost every process start an import


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
    """Fork the worker on its copy of items and return its pid and a reader
    of its UTF-8 pipe (a codec loaded at interpreter start); None without
    os.fork, beside another thread (a fork copies no other thread, nor
    releases the locks one holds), or on one CPU.

    The worker writes each of its members as a count line and one line per
    entry, flushed per member, so this process never waits on a buffer.  It
    writes nothing else, and leaves only through os._exit, so no inherited
    buffer is flushed and no caller's cleanup runs twice.
    """
    affinity = getattr(os, "sched_getaffinity", None)  # absent on some systems
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    if cpus < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, encoding="utf-8")
    code = 1
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "w", encoding="utf-8") as out:
            for _, p, theirs in _workers_share(items, poly):
                if theirs:
                    strings = p.to_strings()
                    print(len(strings), *strings, sep="\n", file=out, flush=True)
        code = 0
    finally:
        os._exit(code)


def split_strings(items, poly=lambda item: item):
    """Yield (item, poly(item).to_strings()) for each of items, in order.

    Nothing runs before the first next().  With a second CPU, that call
    forks one worker, which walks its own copy of items and builds the
    strings of every other nonzero member; this process builds the rest,
    reads the worker's line by line (holding one member's strings at a
    time, as when it builds them), and kills and reaps the worker on every
    way out, a generator closed unfinished included.  Without a second CPU
    this process builds every member's strings.
    """
    pid, reader = _fork_worker(items, poly) or (None, None)
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
