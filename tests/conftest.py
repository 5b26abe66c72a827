import pytest

from congestlist import sparse_listing


@pytest.fixture
def holder_output_sizes(monkeypatch):
    """Sizes of the per-holder outputs of local listing, one entry per
    holder call, recorded while the test runs."""
    sizes: list[int] = []
    original = sparse_listing.holder_cliques

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(sparse_listing, "holder_cliques", counted)
    return sizes
