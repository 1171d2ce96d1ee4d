"""Groups of rooted-tree automorphisms defined by wreath recursion.

The public surface, by area:

* :mod:`agroups.core` -- group definitions, elements, wreath coordinates,
  sections and the level action;
* :mod:`agroups.words` -- the word grammar (powers, conjugates,
  commutators);
* :mod:`agroups.decide` -- triviality, equality, canonical keys, orders,
  portraits, activity, section closures;
* :mod:`agroups.subgroups` -- orbits, Schreier stabilizer generators,
  projections, rigid-stabilizer witnesses, orbit chains, the commutator
  construction;
* :mod:`agroups.certify` -- certificate suites and growth experiments;
* :mod:`agroups.corpus` -- bundled groups and suites;
* :mod:`agroups.cli` -- the ``agt`` command.
"""

from .core import (
    BadArgument,
    BadPerm,
    BadStateName,
    BadVertex,
    BoundExceeded,
    DuplicateState,
    Element,
    EmptyGroup,
    EngineError,
    GroupDef,
    MixedGroups,
    Perm,
    UnknownGenerator,
    UnknownState,
    WreathCoords,
    format_vertex,
    make_group,
)
from .words import ParseError, parse_word
from . import certify, corpus, decide, formats, subgroups

__version__ = "0.1.0"

__all__ = [
    "BadArgument",
    "BadPerm",
    "BadStateName",
    "BadVertex",
    "BoundExceeded",
    "DuplicateState",
    "Element",
    "EmptyGroup",
    "EngineError",
    "GroupDef",
    "MixedGroups",
    "ParseError",
    "Perm",
    "UnknownGenerator",
    "UnknownState",
    "WreathCoords",
    "certify",
    "corpus",
    "decide",
    "format_vertex",
    "formats",
    "make_group",
    "parse_word",
    "subgroups",
]
