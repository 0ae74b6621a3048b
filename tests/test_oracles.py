"""``python -m tests.oracles``: the registry and the row differ."""

from pathlib import Path

from tests import oracles

TABLE = """ORACLE = {
    'serial': {
        'first': (
            Deployed(1, 2),
            State(3),
        ),
        'again': Row(now=1.5, mode='full'),
    },
}

EXTRA = {
    ('app', 1): 7,
}
"""


def test_every_table_printing_test_is_registered():
    here = Path(oracles.__file__).parent
    printing = sorted(
        path.name for path in here.glob("test_*.py")
        if 'if __name__ == "__main__":' in path.read_text().splitlines()
    )
    assert list(oracles.ORACLES) == printing


def test_rows_are_named_by_their_keys():
    assert oracles.rows(TABLE) == {
        "ORACLE": "{",
        "ORACLE['serial']": "{",
        "ORACLE['serial']['first']": "(\nDeployed(1, 2),\nState(3),",
        "ORACLE['serial']['again']": "Row(now=1.5, mode='full'),",
        "EXTRA": "{",
        "EXTRA[('app', 1)]": "7,",
    }


def test_moved_names_every_changed_row():
    old = oracles.rows(TABLE)
    new = oracles.rows(
        TABLE.replace("State(3)", "State(4)").replace("    ('app', 1): 7,\n", "")
        .replace("EXTRA = {\n", "EXTRA = {\n    'new': 1,\n")
    )
    assert oracles.moved(old, new) == [
        ("moved", "ORACLE['serial']['first']"),
        ("added", "EXTRA['new']"),
        ("removed", "EXTRA[('app', 1)]"),
    ]
    assert oracles.moved(old, old) == []
