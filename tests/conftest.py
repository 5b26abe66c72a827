import pytest

from congestlist import pipeline, sparse_listing


def _record_sizes(monkeypatch, module, attr) -> list[int]:
    """Wrap module.attr so that every call appends the size of its output."""
    sizes: list[int] = []
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(module, attr, counted)
    return sizes


@pytest.fixture
def holder_output_sizes(monkeypatch):
    """Sizes of the per-holder outputs of local listing, one entry per
    holder call, recorded while the test runs."""
    return _record_sizes(monkeypatch, sparse_listing, "holder_cliques")


@pytest.fixture
def listing_parts(monkeypatch) -> list[list[int]]:
    """The node parts passed to every local listing call, one entry per
    call, recorded while the test runs."""
    parts: list[list[int]] = []
    original = sparse_listing.local_listing

    def recorded(table, assignment, received):
        parts.append(list(assignment))
        return original(table, assignment, received)

    monkeypatch.setattr(sparse_listing, "local_listing", recorded)
    return parts


@pytest.fixture
def flood_output_sizes(monkeypatch):
    """Sizes of the per-node outputs of the flood's listing, one entry per
    node call, recorded while the test runs."""
    return _record_sizes(monkeypatch, pipeline, "rooted_cliques")
