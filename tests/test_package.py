import jsqldp


def test_every_exported_name_resolves():
    missing = [name for name in jsqldp.__all__ if not hasattr(jsqldp, name)]
    assert missing == []
    assert len(set(jsqldp.__all__)) == len(jsqldp.__all__)
