"""Bundled group definitions and certificate suites."""

from __future__ import annotations

import os

from ..certify import Certificate
from ..core import EngineError, GroupDef, _shown
from ..formats import _read, parse_certificate, parse_group_file

__all__ = [
    "CERTIFICATES",
    "GROUPS",
    "corpus_text",
    "load_certificate",
    "load_group",
]

GROUPS = ("grigorchuk", "basilica", "odometer")
CERTIFICATES = ("grigorchuk_nea", "basilica_nea", "basilica_growth")

_DIR = os.path.dirname(os.path.abspath(__file__))
_FILES = frozenset([f"{name}.agt" for name in GROUPS] + [f"{name}.cert" for name in CERTIFICATES])


def corpus_text(filename: str) -> str:
    """The UTF-8 text of a bundled file, read as a path file is."""
    if filename not in _FILES:
        raise EngineError(f"no bundled file named {_shown(filename)}")
    return _read(os.path.join(_DIR, filename))


def load_group(name: str) -> GroupDef:
    if name not in GROUPS:
        raise EngineError(f"no bundled group named {_shown(name)}; have {', '.join(GROUPS)}")
    return parse_group_file(corpus_text(f"{name}.agt"))


def load_certificate(name: str) -> Certificate:
    if name not in CERTIFICATES:
        raise EngineError(
            f"no bundled certificate named {_shown(name)}; have {', '.join(CERTIFICATES)}"
        )
    return parse_certificate(corpus_text(f"{name}.cert"))
