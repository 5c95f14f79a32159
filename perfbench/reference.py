"""A fixed pure-Python program that run.py spawns before each iteration.

It uses nothing from latticechains, so no change to the program can move
its time: its wall time measures only how fast the shared host runs a fresh
Python process at that moment. It does the kinds of work the package does:
small tuples, dict counting, gcd, Fraction sums and string formatting.
"""

from fractions import Fraction
from math import gcd

seen: dict[tuple[int, int], int] = {}
total = Fraction(0)
for k in range(1, 60_001):
    a, b = k % 89 + 1, k * 7 % 97 + 1
    g = gcd(a, b)
    seen[a // g, b // g] = seen.get((a // g, b // g), 0) + 1
    if k % 40 == 0:
        total += Fraction(a, b)
text = ",".join(f"{a}/{b}:{n}" for (a, b), n in sorted(seen.items()))
assert sum(seen.values()) == 60_000 and total > 0
