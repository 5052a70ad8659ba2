import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the fixture corpus is the demo script's toy corpus
sys.path.insert(0, str(Path(__file__).parent.parent / "scripts"))

from make_demo_data import make_fixture_corpus  # noqa: E402

from sumprobe.names import load_census, load_word_lists, resolve_ambiguous  # noqa: E402
from sumprobe.templates import build_template  # noqa: E402


@pytest.fixture(scope="session")
def census_raw():
    return load_census()


@pytest.fixture(scope="session")
def census(census_raw):
    return resolve_ambiguous(census_raw)


@pytest.fixture(scope="session")
def word_lists():
    return load_word_lists()


@pytest.fixture(scope="session")
def fixture_corpus():
    return make_fixture_corpus(50, seed=7)


@pytest.fixture(scope="session")
def fixture_templates(fixture_corpus):
    return [build_template(doc) for doc in fixture_corpus]
