"""Reference workload that measures how fast the machine is right now.

It does the kind of work an `msc` run does (interpreter start, numpy and
scipy import, a Python loop over small numpy operations and Philox draws)
but imports nothing from the program, so no change to the program can move
its time.  The benchmark times it between its timed runs.
"""
import numpy as np
import scipy.linalg  # noqa: F401  (the program imports it too)
from numpy.random import Generator, Philox

gen = Generator(Philox(key=np.array([1, 2], dtype=np.uint64)))
x = np.zeros(4)
for _ in range(30_000):
    x = 0.9 * x + gen.standard_normal(4)
    float(x @ x)
