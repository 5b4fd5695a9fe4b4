from pathlib import Path

import pytest

from almc.errors import DiagnosticSink
from almc.syntax.parser import parse_file
from almc.cli import compile_from_path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

ALM_FILES = sorted(CORPUS.glob("*.alm"), key=lambda p: p.name)


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def parse_path(path: Path):
    return parse_file(read(path), str(path))


@pytest.fixture(scope="session")
def corpus():
    return CORPUS


@pytest.fixture(scope="session")
def monkey_system():
    return compile_from_path(str(CORPUS / "monkey_and_banana.alm"),
                             [str(CORPUS)])


@pytest.fixture(scope="session")
def t0_system():
    return compile_from_path(str(CORPUS / "t0.alm"), [])


@pytest.fixture(scope="session")
def travel_system():
    return compile_from_path(str(CORPUS / "travel.alm"), [])


@pytest.fixture
def sink():
    return DiagnosticSink()
