import cdc5


def test_every_export_resolves_once():
    assert len(cdc5.__all__) == len(set(cdc5.__all__))
    for name in cdc5.__all__:
        assert getattr(cdc5, name, None) is not None, name
