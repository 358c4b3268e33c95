"""The package's public surface is the list documented in its docstring."""

import skewpuiseux


def documented_api() -> list:
    """Names of the "Public API" block of the package docstring: each line
    reads "group: name, name, ..." or continues the group above."""
    block = skewpuiseux.__doc__.split("Public API", 1)[1].split("\n", 1)[1]
    names = []
    for line in block.splitlines():
        names += [n.strip() for n in line.split(":")[-1].split(",") if n.strip()]
    return names


def test_all_is_the_documented_api():
    doc = documented_api()
    assert len(doc) == len(set(doc)), "a name is documented twice"
    assert sorted(skewpuiseux.__all__) == sorted(doc)
    assert len(skewpuiseux.__all__) == len(set(skewpuiseux.__all__))


def test_every_public_name_resolves():
    for name in skewpuiseux.__all__:
        assert hasattr(skewpuiseux, name), name
