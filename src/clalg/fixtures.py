"""Bundled example algebras in `.cla` text form.

LINEAR_CLA is a five-element chain that passes all four axiom checks.
NONLINEAR_CLA is a six-element non-linear lattice whose tables are kept
exactly as written even though they fail residuation (the fusion table
is not monotone: 1 <= b yet 1*b = b is not below b*b = 0).  The tool
treats such table sets as data to be reported on, never repaired, so
this fixture doubles as the standing example of a defective candidate.
"""

from .fileformat import parse_algebra

LINEAR_CLA = """\
algebra linear5
elements: bot 0 1 a top
bot: bot
zero: 0
one: 1
cover: bot 0
cover: 0 a
cover: 1 top
cover: a 1
mult:
bot bot bot bot bot
bot 0 0 0 top
bot 0 1 a top
bot 0 a 0 top
bot top top top top
imp:
top top top top top
bot 1 1 1 top
bot 0 1 a top
bot a 1 1 top
bot bot bot bot top
end
"""

NONLINEAR_CLA = """\
algebra nonlinear6
elements: bot 0 1 a b top
bot: bot
zero: 0
one: 1
cover: bot 0
cover: bot a
cover: 0 1
cover: 1 b
cover: a top
cover: b top
mult:
bot bot bot bot bot bot
bot 0 0 a 0 top
bot 0 1 a b top
bot a a 0 a top
bot 0 b a 0 top
bot top top top top top
imp:
top top top top top top
bot 1 1 a 1 top
bot 0 1 a b top
bot a a 1 a top
bot b 1 a 1 top
bot bot bot bot bot top
end
"""


def linear_candidate():
    return parse_algebra(LINEAR_CLA)


def nonlinear_candidate():
    return parse_algebra(NONLINEAR_CLA)

