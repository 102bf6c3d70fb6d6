"""The package's export list."""

import fieldcal


def test_every_exported_name_resolves():
    missing = [name for name in fieldcal.__all__
               if not hasattr(fieldcal, name)]
    assert missing == []
    assert len(set(fieldcal.__all__)) == len(fieldcal.__all__)
    namespace = {}
    exec("from fieldcal import *", namespace)
    assert set(fieldcal.__all__) <= set(namespace)
