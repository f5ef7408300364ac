"""Collection order for the whole suite, and the window-table helpers that
only tests use.

The acceptance gate (``test_acceptance.py``) runs every Monte Carlo
criterion at full scale and takes minutes; the other modules together take
under a minute.  The gate runs last, so the unit tests report first.  The
order changes no test's outcome: every test draws from its own fixed seeds.
"""

from runslab.patterns import PatternFunctional


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")


def constant_pattern(c, length=1):
    return PatternFunctional(length, tuple([c] * (1 << length)))


def format_pattern_text(pattern):
    """The text that `runslab.patterns.load_pattern` reads: the window
    length, then one 'bitstring value' line per window."""
    ell = pattern.length
    lines = [str(ell)]
    for w, v in enumerate(pattern.values):
        lines.append(f"{format(w, f'0{ell}b')} {v}")
    return "\n".join(lines) + "\n"


def save_pattern(pattern, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_pattern_text(pattern))
