"""The package's public surface: no public symbol that nothing reads."""

from surface import PACKAGE, unread_symbols


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
