"""The package's public surface: no public symbol that nothing reads, no
config field that only the tests set, and no constructor default that only
the tests pass."""

from surface import PACKAGE, unpassed_defaults, unread_symbols, unset_fields


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


def test_every_constructor_default_of_the_package_is_passed_outside_the_tests():
    assert unpassed_defaults(PACKAGE) == []


def test_a_constructor_default_that_only_a_test_passes_is_reported(tmp_path):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "meters.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "class Meter:\n"
        "    def __init__(self, scale, offset=0.0, unit='m', *, digits=2, grace=5):\n"
        "        self.scale = scale\n\n\n"
        "@dataclass\nclass Reading:\n    value: float\n    note: str = ''\n\n\n"
        "print(Meter(1.0, 0.5), Reading(2.0))\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "bench.py").write_text(
        "import meters\n\nmeters.Meter(2.0, unit='cm', digits=3)\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_meters.py").write_text(
        "from meters import Meter, Reading\n\n"
        "Meter(1.0, grace=1)\nReading(1.0, 'test')\n")
    assert unpassed_defaults(package) == ["meters.Meter.__init__.grace",
                                          "meters.Reading.__init__.note"]
