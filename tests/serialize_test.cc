#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "oem/serialize.h"
#include "oem/store.h"
#include "workload/person_db.h"
#include "workload/tree_gen.h"

namespace gsv {
namespace {

using namespace person_db;  // NOLINT(build/namespaces): OID helpers

TEST(SerializeTest, RoundTripsPersonDb) {
  ObjectStore original;
  ASSERT_TRUE(BuildPersonDb(&original).ok());
  std::string text = StoreToString(original);

  ObjectStore loaded;
  ASSERT_TRUE(StoreFromString(text, &loaded).ok());
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.DatabaseNames(), original.DatabaseNames());
  original.ForEach([&](const Object& object) {
    const Object* copy = loaded.Get(object.oid());
    ASSERT_NE(copy, nullptr) << object.oid().str();
    EXPECT_EQ(*copy, object);
  });
  // A second round trip is byte-identical (canonical ordering).
  EXPECT_EQ(StoreToString(loaded), text);
}

TEST(SerializeTest, RoundTripsAllValueTypes) {
  ObjectStore store;
  ASSERT_TRUE(store.PutAtomic(Oid("I"), "i", Value::Int(-42)).ok());
  ASSERT_TRUE(store.PutAtomic(Oid("R"), "r", Value::Real(3.25)).ok());
  ASSERT_TRUE(store.PutAtomic(Oid("B"), "b", Value::Bool(true)).ok());
  ASSERT_TRUE(store
                  .PutAtomic(Oid("S"), "s",
                             Value::Str("line\nwith \"quotes\" and \\slash"))
                  .ok());
  ASSERT_TRUE(store.PutSet(Oid("SET"), "set", {Oid("I"), Oid("R")}).ok());

  ObjectStore loaded;
  ASSERT_TRUE(StoreFromString(StoreToString(store), &loaded).ok());
  EXPECT_EQ(loaded.Get(Oid("I"))->value().AsInt(), -42);
  EXPECT_DOUBLE_EQ(loaded.Get(Oid("R"))->value().AsReal(), 3.25);
  EXPECT_TRUE(loaded.Get(Oid("B"))->value().AsBool());
  EXPECT_EQ(loaded.Get(Oid("S"))->value().AsString(),
            "line\nwith \"quotes\" and \\slash");
  EXPECT_EQ(loaded.Get(Oid("SET"))->children(), OidSet({Oid("I"), Oid("R")}));
}

TEST(SerializeTest, RoundTripsGeneratedTree) {
  ObjectStore store;
  TreeGenOptions options;
  options.levels = 4;
  options.fanout = 3;
  ASSERT_TRUE(GenerateTree(&store, options).ok());
  ObjectStore loaded;
  ASSERT_TRUE(StoreFromString(StoreToString(store), &loaded).ok());
  EXPECT_EQ(loaded.size(), store.size());
}

TEST(SerializeTest, RoundTripsDagWithSharedChildren) {
  // A diamond: two parents share a child, and a deeper node is reachable
  // along both arms — serialization must preserve the sharing, not expand
  // it into a tree.
  ObjectStore store;
  ASSERT_TRUE(store.PutAtomic(Oid("D.leaf"), "age", Value::Int(9)).ok());
  ASSERT_TRUE(store.PutSet(Oid("D.l"), "left", {Oid("D.leaf")}).ok());
  ASSERT_TRUE(store.PutSet(Oid("D.r"), "right", {Oid("D.leaf")}).ok());
  ASSERT_TRUE(store.PutSet(Oid("D"), "root", {Oid("D.l"), Oid("D.r")}).ok());
  ASSERT_TRUE(store.RegisterDatabase("diamond", Oid("D")).ok());

  std::string text = StoreToString(store);
  ObjectStore loaded;
  ASSERT_TRUE(StoreFromString(text, &loaded).ok());
  EXPECT_EQ(loaded.size(), 4u);
  EXPECT_TRUE(loaded.Get(Oid("D.l"))->children().Contains(Oid("D.leaf")));
  EXPECT_TRUE(loaded.Get(Oid("D.r"))->children().Contains(Oid("D.leaf")));
  // Both arms resolve to the SAME object, and the canonical form is stable.
  EXPECT_EQ(loaded.Get(Oid("D.leaf")), loaded.Get(Oid("D.leaf")));
  EXPECT_EQ(StoreToString(loaded), text);
}

TEST(SerializeTest, RoundTripsCyclicStore) {
  // OEM graphs may contain cycles (§2); the writer emits plain edge lists,
  // so a cycle must survive a round trip without recursion or expansion.
  ObjectStore store;
  ASSERT_TRUE(store.PutSet(Oid("C.a"), "a").ok());
  ASSERT_TRUE(store.PutSet(Oid("C.b"), "b").ok());
  ASSERT_TRUE(store.AddChildRaw(Oid("C.a"), Oid("C.b")).ok());
  ASSERT_TRUE(store.AddChildRaw(Oid("C.b"), Oid("C.a")).ok());  // back edge
  ASSERT_TRUE(store.AddChildRaw(Oid("C.a"), Oid("C.a")).ok());  // self loop

  std::string text = StoreToString(store);
  ObjectStore loaded;
  ASSERT_TRUE(StoreFromString(text, &loaded).ok());
  EXPECT_TRUE(loaded.Get(Oid("C.a"))->children().Contains(Oid("C.b")));
  EXPECT_TRUE(loaded.Get(Oid("C.a"))->children().Contains(Oid("C.a")));
  EXPECT_TRUE(loaded.Get(Oid("C.b"))->children().Contains(Oid("C.a")));
  EXPECT_EQ(StoreToString(loaded), text);
}

TEST(SerializeTest, RoundTripsDelegateOids) {
  // Delegate OIDs ("MV.P1" style, from Oid::Delegate) are ordinary interned
  // strings; a serialized view store must restore them verbatim, including
  // edges from the view object to its delegates.
  ObjectStore store;
  Oid member = Oid("P1");
  Oid delegate = Oid::Delegate(Oid("MV"), member);
  ASSERT_TRUE(store.PutAtomic(delegate, "person", Value::Int(30)).ok());
  ASSERT_TRUE(store.PutSet(Oid("MV"), "mview", {delegate}).ok());
  ASSERT_TRUE(store.RegisterDatabase("MV", Oid("MV")).ok());

  std::string text = StoreToString(store);
  ObjectStore loaded;
  ASSERT_TRUE(StoreFromString(text, &loaded).ok());
  const Object* copy = loaded.Get(Oid::Delegate(Oid("MV"), member));
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->value().AsInt(), 30);
  EXPECT_TRUE(loaded.Get(Oid("MV"))->children().Contains(delegate));
  EXPECT_EQ(StoreToString(loaded), text);
}

TEST(SerializeTest, IgnoresCommentsAndBlankLines) {
  ObjectStore store;
  ASSERT_TRUE(StoreFromString("# header\n\nobj A lab int 1\n\n", &store).ok());
  EXPECT_EQ(store.size(), 1u);
}

TEST(SerializeTest, RejectsMalformedRecords) {
  ObjectStore store;
  EXPECT_FALSE(StoreFromString("nonsense A B\n", &store).ok());
  EXPECT_FALSE(StoreFromString("obj A lab\n", &store).ok());
  EXPECT_FALSE(StoreFromString("obj A lab int\n", &store).ok());
  EXPECT_FALSE(StoreFromString("obj A lab float 1\n", &store).ok());
  EXPECT_FALSE(StoreFromString("obj A lab string noquotes\n", &store).ok());
  EXPECT_FALSE(StoreFromString("obj A lab string \"open\n", &store).ok());
  EXPECT_FALSE(StoreFromString("db X\n", &store).ok());
  EXPECT_FALSE(StoreFromString("db X MISSING\n", &store).ok())
      << "database OIDs must exist";
}

TEST(SerializeTest, DuplicateOidFails) {
  ObjectStore store;
  EXPECT_FALSE(
      StoreFromString("obj A lab int 1\nobj A lab int 2\n", &store).ok());
}

TEST(SerializeTest, FileRoundTrip) {
  ObjectStore store;
  ASSERT_TRUE(BuildPersonDb(&store).ok());
  const std::string path = "/tmp/gsv_serialize_test.gsv";
  ASSERT_TRUE(SaveStoreToFile(store, path).ok());
  ObjectStore loaded;
  ASSERT_TRUE(LoadStoreFromFile(path, &loaded).ok());
  EXPECT_EQ(loaded.size(), store.size());
  EXPECT_FALSE(LoadStoreFromFile("/nonexistent/nope", &loaded).ok());
}

TEST(SerializeTest, ReadStoreStreamsAcrossStrides) {
  // More lines than one read stride, plus the header comment and a
  // database line: the stream load must reproduce the store.
  ObjectStore store;
  TreeGenOptions options;
  options.levels = 4;
  options.fanout = 8;
  options.seed = 3;
  Result<GeneratedTree> tree = GenerateTree(&store, options);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(store.RegisterDatabase("T", tree.value().root).ok());
  ASSERT_GT(store.size(), 4096u);
  const std::string text = StoreToString(store);
  ASSERT_NE(text.find("\ndb T "), std::string::npos);
  std::istringstream in(text);
  ObjectStore streamed;
  ASSERT_TRUE(ReadStore(in, &streamed).ok());
  EXPECT_EQ(StoreToString(streamed), text);

  // A bad line past the first stride is reported by its line number in
  // the whole stream.
  std::string bad;
  for (int i = 0; i < 5000; ++i) {
    bad += "obj rs:" + std::to_string(i) + " lbl int " + std::to_string(i) +
           "\n";
    if (i == 3000) bad += "# note\n";
  }
  bad += "obj rs:bad lbl int x\n";
  std::istringstream bad_in(bad);
  ObjectStore partial;
  Status status = ReadStore(bad_in, &partial);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("line 5002: bad integer 'x'"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(partial.size(), 5000u);
}

TEST(SerializeTest, DecodeObjectRecordsRoundTripsAndInternsInTextOrder) {
  // Spellings never seen before: the decoder must intern them in text
  // order (record OID, then its children), as a line-by-line decode did.
  const std::string text =
      "obj dec:z lbl set dec:m dec:a\n"
      "\n"
      "# comment\n"
      "obj dec:m lbl string \"x \\\"y\\\" \\\\ \\n\"\n"
      "obj dec:a lbl int -9\n"
      "obj dec:b lbl real 1e-07\n"
      "obj dec:c lbl bool false";
  std::vector<Object> objects;
  ASSERT_TRUE(DecodeObjectRecords(text, &objects).ok());
  ASSERT_EQ(objects.size(), 5u);
  EXPECT_LT(Oid("dec:z").id(), Oid("dec:m").id());
  EXPECT_LT(Oid("dec:m").id(), Oid("dec:a").id());
  EXPECT_LT(Oid("dec:a").id(), Oid("dec:b").id());
  EXPECT_LT(Oid("dec:b").id(), Oid("dec:c").id());
  EXPECT_EQ(objects[0].children(), OidSet({Oid("dec:a"), Oid("dec:m")}));
  // Children out of canonical order or repeated are sorted and
  // deduplicated.
  for (const char* record : {"obj dec:d lbl set dec:m dec:a dec:m\n",
                             "obj dec:d lbl set dec:a dec:a dec:m\n",
                             "obj dec:d lbl set dec:a dec:m\n"}) {
    std::vector<Object> one;
    ASSERT_TRUE(DecodeObjectRecords(record, &one).ok());
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].children().elements(),
              (std::vector<Oid>{Oid("dec:a"), Oid("dec:m")}))
        << record;
  }
  EXPECT_EQ(objects[1].value().AsString(), "x \"y\" \\ \n");
  EXPECT_EQ(objects[2].value().AsInt(), -9);
  EXPECT_DOUBLE_EQ(objects[3].value().AsReal(), 1e-7);
  EXPECT_FALSE(objects[4].value().AsBool());
  std::string reencoded;
  for (const Object& object : objects) {
    reencoded += EncodeObjectRecord(object) + '\n';
  }
  EXPECT_EQ(reencoded,
            "obj dec:z lbl set dec:a dec:m\n"
            "obj dec:m lbl string \"x \\\"y\\\" \\\\ \\n\"\n"
            "obj dec:a lbl int -9\nobj dec:b lbl real 1e-07\n"
            "obj dec:c lbl bool false\n");
}

TEST(SerializeTest, DecodeObjectRecordsNamesTheBadLine) {
  std::vector<Object> objects;
  Status status = DecodeObjectRecords(
      "obj bad:1 lbl int 1\nobj bad:2 lbl int x\nobj bad:3 lbl int 3\n",
      &objects);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("line 2: bad integer 'x'"),
            std::string::npos)
      << status.ToString();
  ASSERT_EQ(objects.size(), 1u) << "records before the bad line are kept";
  EXPECT_EQ(objects[0].oid(), Oid("bad:1"));
  EXPECT_FALSE(DecodeObjectRecords("db X Y\n", &objects).ok());
  EXPECT_TRUE(DecodeObjectRecords("obj bad:4 lbl int +5\r\n", &objects).ok());
  EXPECT_EQ(objects.back().value().AsInt(), 5);
}

}  // namespace
}  // namespace gsv
