import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from agroups import corpus, formats  # noqa: E402
from agroups.core import make_group  # noqa: E402


@pytest.fixture(scope="session")
def grig():
    return corpus.load_group("grigorchuk")


@pytest.fixture(scope="session")
def bas():
    return corpus.load_group("basilica")


@pytest.fixture(scope="session")
def odo():
    return corpus.load_group("odometer")


@pytest.fixture(scope="session")
def aleshin():
    # three states generating a free group: section words never collapse
    return formats.load_group_file(pathlib.Path(__file__).with_name("aleshin.agt"))


@pytest.fixture(scope="session")
def rand4():
    # a random ternary automaton whose products take long intern-table slow paths
    return formats.load_group_file(pathlib.Path(__file__).with_name("rand4.agt"))


@pytest.fixture(scope="session")
def rot3():
    # ternary alphabet with non-commuting root permutations; exists to pin
    # the product/action conventions, which binary groups cannot distinguish
    return make_group(
        3,
        [
            ("r", ("1", "1", "1"), ((1, 2, 3),)),
            ("u", ("1", "1", "1"), ((1, 2),)),
            ("t", ("u", "1", "t"), None),
            ("w", ("r", "t", "1"), ((1, 2),)),
        ],
        name="rot3",
    )
