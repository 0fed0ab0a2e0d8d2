import numpy as np
import pytest

from cnkit import monsky


@pytest.fixture()
def cold_g_table(monkeypatch):
    """An empty g-table cache, and the list of every limit built into it;
    the cache of the session is restored afterwards."""
    built = []
    build = monsky._build_g_table

    def counting(limit, sieve):
        built.append(limit)
        return build(limit, sieve)

    monkeypatch.setattr(monsky, "_G_TABLE", np.zeros(0, dtype=np.uint8))
    monkeypatch.setattr(monsky, "_build_g_table", counting)
    return built
