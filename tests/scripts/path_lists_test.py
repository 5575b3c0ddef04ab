"""Every unit suite runs every backend: no C++ test source may spell out a
literal list of KernelPath values, because such a list silently skips the
backends it does not name (threshold_test's list once missed AVX-512).
Suites iterate caps::availablePaths() instead. A list is a brace list or a
::testing::Values(...) argument list whose elements are two or more
KernelPath enumerators and nothing else; a table row that pairs one path
with a name or a kernel is not one."""
import os
import re
import sys
import unittest

TESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
ITEMS = r"\s*KernelPath::\w+(?:\s*,\s*KernelPath::\w+)+\s*,?\s*"
LISTS = re.compile(r"\{%s\}|\bValues\s*\(%s\)" % (ITEMS, ITEMS))


def literal_lists(text):
    """(line, list text) of every literal KernelPath list in `text`."""
    text = re.sub(r"//[^\n]*", "", text)
    return [(text.count("\n", 0, m.start()) + 1, " ".join(m.group().split()))
            for m in LISTS.finditer(text)]


def offenders(root):
    found = []
    for d, _, files in os.walk(root):
        for f in sorted(files):
            if f.endswith((".cpp", ".hpp", ".inl")):
                path = os.path.join(d, f)
                with open(path, encoding="utf-8") as fh:
                    for line, group in literal_lists(fh.read()):
                        found.append("%s:%d: %s" % (os.path.relpath(path, root), line, group))
    return found


class PathListsTest(unittest.TestCase):
    def test_detector_sees_lists_and_ignores_table_rows(self):
        self.assertEqual(len(literal_lists(
            "for (KernelPath p : {KernelPath::Sse2, KernelPath::Neon}) {}")), 1)
        self.assertEqual(len(literal_lists(
            "INSTANTIATE(::testing::Values(KernelPath::Auto,\n KernelPath::Sse2));")), 1)
        self.assertEqual(literal_lists(
            'arms[] = {{KernelPath::Sse2, &f}, {KernelPath::Avx2, &g}};'), [])
        self.assertEqual(literal_lists(
            "// {KernelPath::Sse2, KernelPath::Avx2}\nint x;"), [])

    def test_no_test_source_names_a_literal_path_list(self):
        found = offenders(TESTS)
        self.assertEqual(found, [], "iterate caps::availablePaths() instead:\n" +
                         "\n".join(found))


if __name__ == "__main__":
    sys.exit(unittest.main())
