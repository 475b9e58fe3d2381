"""Seeded violations for the unseeded-rng rule (R2).

The filename contains "engine", which puts this module in the rule's
golden-model scope.
"""

import random

import numpy as np


def draw_numpy():
    # Violation: global NumPy RNG state.
    return np.random.rand(4)


def draw_stdlib():
    # Violation: global random-module state.
    return random.random()


def seed_from_name(name, index):
    # Violation: builtin hash() of a str is salted per process.
    return hash((name, index)) & 0x7FFFFFFF


def draw_seeded(seed):
    # Allowed: explicitly seeded generator objects.
    rng = np.random.default_rng(seed)
    local = random.Random(seed)
    return rng.random(), local.random()
