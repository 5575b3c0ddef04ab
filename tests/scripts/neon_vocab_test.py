"""The NEON emulation models exactly the Neon backend's vocabulary: every
intrinsic src/simd/neon_emu.hpp defines must be named by one of the sources
that speak NEON outside the tests (VecTraits<Neon>, the paper's
cvt32f16sPaper listing, Figure 1's vaddq_f32 loop), directly or through
another kept definition, or be one of the LAWS: the integer families the typed
conformance laws of tests/simd/neon_emu_test.cpp sweep across the backend's
integer lane types. An intrinsic nothing reaches is dead weight that only its
own unit test exercises; delete it, or add it with its first caller.

Definitions are read from the preprocessed header, so names built by macros
count too. Usage: neon_vocab_test.py [c++ compiler] (default: $CXX or c++)."""
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
EMULATION = os.path.join("src", "simd", "neon_emu.hpp")
CALLERS = [os.path.join("src", "simd", "vec_neon.hpp"),
           os.path.join("src", "core", "convert_neon.cpp"),
           os.path.join("bench", "fig1_scalar_vs_simd.cpp")]
# Family x lane type; each must be defined, and counts as reached.
LAWS = ["%s_%s" % (family, lanes)
        for family in ("vld1q", "vst1q", "vdupq_n", "vaddq", "vsubq", "vqaddq",
                       "vqsubq", "vminq", "vmaxq", "vcgtq", "vceqq")
        for lanes in ("u8", "s16", "u16", "s32", "u32")]
CXX = sys.argv.pop(1) if len(sys.argv) > 1 else os.environ.get("CXX", "c++")

INTRINSIC = re.compile(r"\bv[a-z0-9]+_[a-z0-9_]+\b")


def matching(text, i, open_ch, close_ch):
    """Index just past the bracket that closes the one at text[i]."""
    depth = 0
    for j in range(i, len(text)):
        if text[j] == open_ch:
            depth += 1
        elif text[j] == close_ch:
            depth -= 1
            if depth == 0:
                return j + 1
    raise ValueError("unbalanced %s%s" % (open_ch, close_ch))


def definitions(text):
    """{name: body} of every intrinsic defined at namespace depth 0 of
    preprocessed `text`: a name, its parameter list, then a `{` body."""
    defs, depth, i = {}, 0, 0
    while i < len(text):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
        elif depth == 0:
            m = INTRINSIC.match(text, i)
            if m and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
                j = m.end()
                while j < len(text) and text[j].isspace():
                    j += 1
                if j < len(text) and text[j] == "(":
                    k = matching(text, j, "(", ")")
                    while k < len(text) and text[k].isspace():
                        k += 1
                    if k < len(text) and text[k] == "{":
                        end = matching(text, k, "{", "}")
                        defs[m.group()] = text[k:end]
                        i = end
                        continue
                i = m.end()
                continue
        i += 1
    return defs


def unreached(defs, callers):
    """Sorted names in `defs` that no caller text names, directly or through
    the bodies of the definitions it reaches."""
    todo = [n for text in callers for n in INTRINSIC.findall(text) if n in defs]
    seen = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(n for n in INTRINSIC.findall(defs[name]) if n in defs)
    return sorted(set(defs) - seen)


def strip_comments(text):
    return re.sub(r"//[^\n]*|/\*.*?\*/", "", text, flags=re.S)


def emulation_text():
    """The emulation header preprocessed, keeping only its own lines (the
    standard headers it includes define nothing of interest)."""
    out = subprocess.run([CXX, "-std=c++17", "-E", "-x", "c++", "-U__ARM_NEON",
                          "-U__ARM_NEON__", "-I", os.path.join(ROOT, "src"),
                          os.path.join(ROOT, EMULATION)],
                         check=True, capture_output=True, text=True).stdout
    own, keep = [], False
    for line in out.splitlines():
        marker = re.match(r'#\s*\d+\s+"([^"]*)"', line)
        if marker:
            keep = os.path.basename(marker.group(1)).startswith("neon_emu")
        elif keep:
            own.append(line)
    return "\n".join(own)


class NeonVocabTest(unittest.TestCase):
    def test_detector_follows_calls_and_ignores_calls_and_namespaces(self):
        emu = ("inline int vfoo_s16(int a) { return vbar_s16(a); }\n"
               "inline int vbar_s16(int a) { return a; }\n"
               "inline int vdead_u8(int a) { return vbar_s16(a); }\n"
               "namespace d { inline int vhelp_u8(int a) { return a; } }\n"
               "inline void vst1q_u8(int* p,\n  int v) {\n  *p = vfoo_s16(v);\n}\n")
        defs = definitions(emu)
        self.assertEqual(sorted(defs), ["vbar_s16", "vdead_u8", "vfoo_s16", "vst1q_u8"])
        self.assertEqual(unreached(defs, ["x = vfoo_s16(1);"]), ["vdead_u8", "vst1q_u8"])
        self.assertEqual(unreached(defs, ["vst1q_u8(p, 1); vdead_u8(2);"]), [])
        # A name in a caller's comment does not keep a definition.
        self.assertEqual(unreached(defs, [strip_comments("// vdead_u8\nvst1q_u8(p, 1);")]),
                         ["vdead_u8"])

    def test_emulation_defines_only_the_backend_vocabulary(self):
        defs = definitions(emulation_text())
        self.assertGreater(len(defs), 0, "no intrinsic definitions found")
        callers = []
        for rel in CALLERS:
            with open(os.path.join(ROOT, rel), encoding="utf-8") as fh:
                callers.append(strip_comments(fh.read()))
        self.assertEqual([n for n in LAWS if n not in defs], [],
                         "law families missing from the emulation")
        dead = unreached(defs, callers + [" ".join(LAWS)])
        self.assertEqual(dead, [], "%d of %d emulated intrinsics are unreached from %s or LAWS:\n%s"
                         % (len(dead), len(defs), ", ".join(CALLERS), " ".join(dead)))


if __name__ == "__main__":
    sys.exit(unittest.main())
