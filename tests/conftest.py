"""Collection order for the whole suite.

The acceptance gate (``test_acceptance.py``) runs every Monte Carlo
criterion at full scale and takes minutes; the other modules together take
under a minute.  The gate runs last, so the unit tests report first.  The
order changes no test's outcome: every test draws from its own fixed seeds.
"""


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")
