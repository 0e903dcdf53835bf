"""Tests for the layer attribution map and the stale-profile guard.

    python3 -m unittest discover -s simbench
"""

import os
import shutil
import tempfile
import time
import unittest

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_SRC = os.path.join(os.path.dirname(HERE), "src")

# A canned `gprof -b -p --no-demangle` flat profile: one row per rule
# the map applies, plus a row without call counts.
FLAT = """\
Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls   s/call   s/call  name
 40.00      0.40     0.40  2000000     0.00     0.00  _ZN7banshee5Cache6lookupEmb
 20.00      0.60     0.20   500000     0.00     0.00  _ZNKSt10_HashtableImSt4pairIKmN7banshee16PageTableManager5EntryEE4findERS1_
 15.00      0.75     0.15   300000     0.00     0.00  _ZNSt5dequeIN7banshee11DramChannel7PendingEE8_M_eraseEv
 10.00      0.85     0.10   100000     0.00     0.00  _ZN7banshee11DramChannel4kickEv
  5.00      0.90     0.05    20000     0.00     0.00  _ZN7banshee11DramChannel4kickEv.part.0
  4.00      0.94     0.04   400000     0.00     0.00  _ZNSt17_Function_handlerIFvvEZN7banshee9CoreModel3runEvEUlvE_E9_M_invokeERKSt9_Any_data
  3.00      0.97     0.03    10000     0.00     0.00  _ZNSt19_Sp_counted_ptr_inplaceIjSaIvELN9__gnu_cxx12_Lock_policyE2EE10_M_disposeEv
  3.00      1.00     0.03                             frame_dummy
"""

NAMES = {
    "_ZN7banshee5Cache6lookupEmb":
        "banshee::Cache::lookup(unsigned long, bool)",
    "_ZNKSt10_HashtableImSt4pairIKmN7banshee16PageTableManager5EntryEE4findERS1_":
        "std::_Hashtable<unsigned long, std::pair<unsigned long const, "
        "banshee::PageTableManager::Entry> >::find(unsigned long const&) "
        "const",
    "_ZNSt5dequeIN7banshee11DramChannel7PendingEE8_M_eraseEv":
        "std::deque<banshee::DramChannel::Pending>::_M_erase()",
    "_ZN7banshee11DramChannel4kickEv": "banshee::DramChannel::kick()",
    "_ZN7banshee11DramChannel4kickEv.part.0":
        "banshee::DramChannel::kick() [clone .part.0]",
    "_ZNSt17_Function_handlerIFvvEZN7banshee9CoreModel3runEvEUlvE_E9_M_invokeERKSt9_Any_data":
        "std::_Function_handler<void (banshee::MappingInfo const&), "
        "banshee::CoreModel::run()::{lambda()#1}>::_M_invoke("
        "std::_Any_data const&)",
    "_ZNSt19_Sp_counted_ptr_inplaceIjSaIvELN9__gnu_cxx12_Lock_policyE2EE10_M_disposeEv":
        "std::_Sp_counted_ptr_inplace<unsigned int, std::allocator<void>, "
        "(__gnu_cxx::_Lock_policy)2>::_M_dispose()",
}

# Type declarations of a miniature source tree: what the map may rely
# on, including a forward declaration in another layer and a name
# defined in two layers.
TREE = {
    "cache/cache.hh": "class Cache\n{\n};\n",
    "os/page_table.hh": "struct PageTableManager final\n{\n};\n",
    "dram/dram_model.hh": "class DramChannel\n{\n};\nclass Shared {};\n",
    "cpu/core_model.hh": "class CoreModel\n{\n};\n",
    "mem/request.hh": "struct MappingInfo\n{\n};\n",
    "sim/system.hh": "class DramChannel; // forward\nclass Shared {};\n",
}


class LayerMapTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        self.src = os.path.join(self.tmp, "src")
        self.driver = os.path.join(self.tmp, "simbench")
        for rel, text in TREE.items():
            path = os.path.join(self.src, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        self.types = layers.type_index(self.src)
        self.files = {
            "_ZN7banshee5Cache6lookupEmb":
                os.path.join(self.src, "cache", "cache.cc"),
            "_ZN7banshee11DramChannel4kickEv":
                os.path.join(self.src, "dram", "dram_model.cc"),
            "_ZN7banshee11DramChannel4kickEv.part.0":
                os.path.join(self.src, "dram", "dram_model.cc"),
            # std instantiations live in system headers.
            "_ZNKSt10_HashtableImSt4pairIKmN7banshee16PageTableManager5EntryEE4findERS1_":
                "/usr/include/c++/12/bits/hashtable.h",
            "_ZNSt5dequeIN7banshee11DramChannel7PendingEE8_M_eraseEv":
                "/usr/include/c++/12/bits/deque.tcc",
        }

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def attributed(self):
        return layers.attribute(layers.parse_flat(FLAT), NAMES, self.files, self.types,
                                self.src, self.driver)

    def test_type_index_skips_forward_and_ambiguous_names(self):
        self.assertEqual(self.types["DramChannel"], "dram")
        self.assertEqual(self.types["PageTableManager"], "os")
        self.assertNotIn("Shared", self.types)

    def test_each_row_lands_in_its_layer(self):
        where = {name: layer for name, layer, _, _ in self.attributed()}
        self.assertEqual(where["banshee::Cache::lookup(unsigned long, bool)"],
                         "cache")
        self.assertEqual(where[NAMES[
            "_ZNKSt10_HashtableImSt4pairIKmN7banshee16PageTableManager5EntryEE4findERS1_"]],
            "os")
        self.assertEqual(
            where["std::deque<banshee::DramChannel::Pending>::_M_erase()"],
            "dram")
        # The lambda's enclosing class wins over an earlier type in the
        # std::function signature.
        self.assertEqual(where[NAMES[
            "_ZNSt17_Function_handlerIFvvEZN7banshee9CoreModel3runEvEUlvE_E9_M_invokeERKSt9_Any_data"]],
            "cpu")
        self.assertEqual(where[NAMES[
            "_ZNSt19_Sp_counted_ptr_inplaceIjSaIvELN9__gnu_cxx12_Lock_policyE2EE10_M_disposeEv"]],
            "unattributed")
        self.assertEqual(where["frame_dummy"], "unattributed")

    def test_layer_seconds_sum_to_the_profile(self):
        seconds = layers.layer_seconds(self.attributed())
        self.assertAlmostEqual(seconds["cache"], 0.40)
        self.assertAlmostEqual(seconds["os"], 0.20)
        self.assertAlmostEqual(seconds["dram"], 0.30)
        self.assertAlmostEqual(seconds["cpu"], 0.04)
        self.assertAlmostEqual(seconds["unattributed"], 0.06)
        self.assertAlmostEqual(sum(seconds.values()), 1.00)

    def test_calls_merge_compiler_clones(self):
        attributed = self.attributed()
        self.assertEqual(layers.count_calls(
            attributed, r"^banshee::DramChannel::kick\("), 120000)
        self.assertEqual(layers.count_calls(
            attributed, r"PageTableManager::Entry.*>::find\("), 500000)
        self.assertEqual(layers.count_calls(attributed, r"^frame_dummy$"), 0)
        self.assertEqual(layers.count_calls(
            attributed, r"^banshee::Cache::lookup\(", layer="dram"), 0)

    def test_driver_and_outside_files(self):
        self.assertEqual(layers.file_layer(
            os.path.join(self.driver, "driver.cc"), self.src, self.driver),
            layers.DRIVER_LAYER)
        self.assertIsNone(layers.file_layer(
            "/usr/include/c++/12/bits/hashtable.h", self.src, self.driver))
        self.assertIsNone(layers.file_layer(None, self.src, self.driver))

    def test_nm_lines(self):
        text = ("0000000000011420 T _ZN7banshee5Cache6lookupEmb\t"
                "/x/src/cache/cache.cc:48\n"
                "0000000000001000 t frame_dummy\n")
        self.assertEqual(layers.parse_nm_lines(text),
                         {"_ZN7banshee5Cache6lookupEmb": "/x/src/cache/cache.cc"})

    @unittest.skipUnless(shutil.which("c++filt"), "needs c++filt")
    def test_demangle(self):
        names = layers.demangle(["_ZN7banshee11DramChannel4kickEv.part.0"])
        self.assertEqual(layers.base_name(names[
            "_ZN7banshee11DramChannel4kickEv.part.0"]),
            "banshee::DramChannel::kick()")

    @unittest.skipUnless(os.path.isdir(REPO_SRC), "needs the simulator src/")
    def test_simulator_types(self):
        types = layers.type_index(REPO_SRC)
        expected = {"Cache": "cache", "CacheHierarchy": "cache",
                    "PageTableManager": "os", "DramChannel": "dram",
                    "MemSystem": "scheme", "BansheeScheme": "scheme",
                    "EventQueue": "common", "CoreModel": "cpu",
                    "MixPattern": "workload", "TenantMap": "resize",
                    "System": "sim"}
        for name, layer in expected.items():
            self.assertEqual(types.get(name), layer, name)


class StaleProfileTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        self.binary = os.path.join(self.tmp, "driver")
        with open(self.binary, "wb") as f:
            f.write(b"binary v1")
        old = time.time() - 100
        os.utime(self.binary, (old, old))
        self.digest = layers.file_digest(self.binary)
        self.started = time.time() - 10
        self.gmon = os.path.join(self.tmp, "gmon.out.123")
        with open(self.gmon, "wb") as f:
            f.write(b"profile")

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def test_fresh_profile_passes(self):
        layers.check_profile_fresh(self.binary, self.digest, self.gmon,
                                   self.started)

    def test_missing_profile(self):
        os.remove(self.gmon)
        with self.assertRaises(layers.StaleProfile):
            layers.check_profile_fresh(self.binary, self.digest, self.gmon,
                                       self.started)

    def test_profile_from_an_earlier_run(self):
        old = self.started - 60
        os.utime(self.gmon, (old, old))
        with self.assertRaises(layers.StaleProfile):
            layers.check_profile_fresh(self.binary, self.digest, self.gmon,
                                       self.started)

    def test_rebuilt_binary(self):
        with open(self.binary, "wb") as f:
            f.write(b"binary v2")
        with self.assertRaises(layers.StaleProfile):
            layers.check_profile_fresh(self.binary, self.digest, self.gmon,
                                       self.started)

    def test_same_size_binary_with_old_mtime(self):
        with open(self.binary, "wb") as f:
            f.write(b"binary v9")
        old = self.started - 60
        os.utime(self.binary, (old, old))
        with self.assertRaises(layers.StaleProfile):
            layers.check_profile_fresh(self.binary, self.digest, self.gmon,
                                       self.started)


if __name__ == "__main__":
    unittest.main()
