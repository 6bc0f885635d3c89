"""The traffic trace: the statements that a run never reaches are listed."""

import runpy

from traffic import unrun


def test_a_statement_that_the_traffic_never_runs_is_listed(tmp_path):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "shapes.py").write_text(
        '"""Shapes."""\n\n\n'
        "def area(width, depth):\n"
        '    """A docstring is no statement."""\n'
        "    if width < 0:\n"
        "        raise ValueError(\n"
        '            "negative width")\n'
        "    try:\n"
        "        return width * depth\n"
        "    finally:\n"
        "        width = None\n\n\n"
        "@staticmethod\n"
        "def volume(box):\n"
        "    return area(box,\n"
        "                box) * box\n\n\n"
        "AREA = area(2,\n"
        "            3)\n")
    found = unrun(package, lambda: runpy.run_path(str(package / "shapes.py")))
    assert found == {"shapes.py": [(7, "raise ValueError("), (17, "return area(box,")]}
