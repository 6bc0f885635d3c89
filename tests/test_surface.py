"""The package's public surface: no public symbol that nothing reads, and no
config field that only the tests set."""

from surface import PACKAGE, unread_symbols, unset_fields


def test_every_public_symbol_of_the_package_is_read():
    assert unread_symbols(PACKAGE) == []


def test_a_public_symbol_that_only_its_definition_names_is_reported(tmp_path):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "shapes.py").write_text(
        "class Box:\n    width = 1\n    depth = 2\n\n\n"
        "def area(box):\n    return box.width\n\n\n"
        "def volume(box):\n    return area(box)\n\n\n"
        "print(volume(Box()))\n")
    assert unread_symbols(package) == ["shapes.Box.depth"]


def test_every_config_field_of_the_package_is_set_outside_the_tests():
    assert unset_fields(PACKAGE) == []


def test_a_config_field_that_nothing_sets_is_reported(tmp_path):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "settings.py").write_text(
        "from dataclasses import dataclass, replace\n\n\n"
        "def option(default):\n    return default\n\n\n"
        "@dataclass\nclass ToyConfig:\n"
        "    rate: float = option(0.1)\n    seed: int = 0\n"
        "    verbose: bool = False\n    frozen: bool = False\n\n\n"
        "config = replace(ToyConfig(), seed=3)\n"
        "config.verbose = config.frozen\n")
    assert unset_fields(package) == ["settings.ToyConfig.frozen"]
