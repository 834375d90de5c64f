#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lsm/env.h"
#include "state/change_log.h"
#include "state/lsm_state_backend.h"
#include "state/modeled_state_backend.h"

namespace rhino::state {
namespace {

TEST(DeltaFilesTest, ComputesNewFilesOnly) {
  std::vector<StateFile> prev = {{"a", 10}, {"b", 20}};
  std::vector<StateFile> cur = {{"a", 10}, {"b", 20}, {"c", 30}};
  auto delta = DeltaFiles(prev, cur);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].name, "c");
  EXPECT_EQ(delta[0].bytes, 30u);
}

TEST(DeltaFilesTest, EmptyPreviousMeansFullDelta) {
  std::vector<StateFile> cur = {{"a", 1}, {"b", 2}};
  EXPECT_EQ(DeltaFiles({}, cur).size(), 2u);
}

TEST(CheckpointDescriptorTest, ByteTotals) {
  CheckpointDescriptor desc;
  desc.files = {{"a", 100}, {"b", 50}};
  desc.delta_files = {{"b", 50}};
  EXPECT_EQ(desc.TotalBytes(), 150u);
  EXPECT_EQ(desc.DeltaBytes(), 50u);
}

// -------------------------------------------------------- LsmStateBackend

class LsmBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto backend = LsmStateBackend::Open(&env_, "/state/op-0", "op", 0);
    ASSERT_TRUE(backend.ok());
    backend_ = std::move(backend).MoveValue();
  }
  lsm::MemEnv env_;
  std::unique_ptr<LsmStateBackend> backend_;
};

TEST_F(LsmBackendTest, PutGetScopedByVnode) {
  ASSERT_TRUE(backend_->Put(1, "k", "v1", 10).ok());
  ASSERT_TRUE(backend_->Put(2, "k", "v2", 10).ok());
  std::string v;
  ASSERT_TRUE(backend_->Get(1, "k", &v).ok());
  EXPECT_EQ(v, "v1");
  ASSERT_TRUE(backend_->Get(2, "k", &v).ok());
  EXPECT_EQ(v, "v2");
  EXPECT_TRUE(backend_->Get(3, "k", &v).IsNotFound());
}

TEST_F(LsmBackendTest, VnodeByteAccounting) {
  ASSERT_TRUE(backend_->Put(5, "a", "x", 100).ok());
  ASSERT_TRUE(backend_->Put(5, "b", "y", 50).ok());
  ASSERT_TRUE(backend_->Put(6, "a", "z", 25).ok());
  EXPECT_EQ(backend_->VnodeBytes(5), 150u);
  EXPECT_EQ(backend_->VnodeBytes(6), 25u);
  EXPECT_EQ(backend_->SizeBytes(), 175u);
  ASSERT_TRUE(backend_->Delete(5, "a", 100).ok());
  EXPECT_EQ(backend_->VnodeBytes(5), 50u);
}

TEST_F(LsmBackendTest, ScanVnodeReturnsOnlyItsKeys) {
  ASSERT_TRUE(backend_->Put(1, "a", "1", 1).ok());
  ASSERT_TRUE(backend_->Put(1, "b", "2", 1).ok());
  ASSERT_TRUE(backend_->Put(2, "c", "3", 1).ok());
  auto entries = backend_->ScanVnode(1);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].first, "a");
  EXPECT_EQ((*entries)[1].first, "b");
}

TEST_F(LsmBackendTest, ScanPrefixFiltersWithinVnode) {
  ASSERT_TRUE(backend_->Put(1, "aa1", "1", 1).ok());
  ASSERT_TRUE(backend_->Put(1, "aa2", "2", 1).ok());
  ASSERT_TRUE(backend_->Put(1, "ab1", "3", 1).ok());
  auto entries = backend_->ScanPrefix(1, "aa");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
}

TEST_F(LsmBackendTest, CheckpointDescribesFilesAndDeltas) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        backend_->Put(1, "key" + std::to_string(i), "value", 32).ok());
  }
  auto c1 = backend_->Checkpoint(1);
  ASSERT_TRUE(c1.ok());
  EXPECT_FALSE(c1->files.empty());
  EXPECT_EQ(c1->delta_files.size(), c1->files.size())
      << "first checkpoint: everything is new";
  EXPECT_EQ(c1->vnode_bytes.at(1), 3200u);

  for (int i = 100; i < 120; ++i) {
    ASSERT_TRUE(
        backend_->Put(1, "key" + std::to_string(i), "value", 32).ok());
  }
  auto c2 = backend_->Checkpoint(2);
  ASSERT_TRUE(c2.ok());
  EXPECT_LT(c2->DeltaBytes(), c2->TotalBytes());
  EXPECT_GT(c2->DeltaBytes(), 0u);
}

TEST_F(LsmBackendTest, ExtractIngestMovesVnodes) {
  ASSERT_TRUE(backend_->Put(3, "a", "va", 10).ok());
  ASSERT_TRUE(backend_->Put(3, "b", "vb", 10).ok());
  ASSERT_TRUE(backend_->Put(4, "c", "vc", 10).ok());

  auto blob = backend_->ExtractVnodes({3});
  ASSERT_TRUE(blob.ok());

  auto other = LsmStateBackend::Open(&env_, "/state/op-1", "op", 1);
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE((*other)->IngestVnodes(*blob, false).ok());
  std::string v;
  ASSERT_TRUE((*other)->Get(3, "a", &v).ok());
  EXPECT_EQ(v, "va");
  ASSERT_TRUE((*other)->Get(3, "b", &v).ok());
  EXPECT_EQ(v, "vb");
  EXPECT_TRUE((*other)->Get(4, "c", &v).IsNotFound());
  EXPECT_EQ((*other)->VnodeBytes(3), 20u);

  ASSERT_TRUE(backend_->DropVnodes({3}).ok());
  EXPECT_TRUE(backend_->Get(3, "a", &v).IsNotFound());
  EXPECT_EQ(backend_->VnodeBytes(3), 0u);
  ASSERT_TRUE(backend_->Get(4, "c", &v).ok()) << "vnode 4 untouched";
}

TEST_F(LsmBackendTest, ApplyBatchGroupCommitsMixedRun) {
  std::vector<StateWrite> writes;
  writes.push_back({1, false, "a", "va", 10});
  writes.push_back({1, false, "b", "vb", 10});
  writes.push_back({2, false, "c", "vc", 5});
  writes.push_back({1, true, "a", "", 10});  // delete within the same run
  uint64_t appends_before = backend_->db()->wal_appends();
  ASSERT_TRUE(backend_->ApplyBatch(writes).ok());
  EXPECT_EQ(backend_->db()->wal_appends(), appends_before + 1)
      << "the whole run must be one group commit";
  std::string v;
  EXPECT_TRUE(backend_->Get(1, "a", &v).IsNotFound());
  ASSERT_TRUE(backend_->Get(1, "b", &v).ok());
  EXPECT_EQ(v, "vb");
  ASSERT_TRUE(backend_->Get(2, "c", &v).ok());
  EXPECT_EQ(v, "vc");
  EXPECT_EQ(backend_->VnodeBytes(1), 10u);
  EXPECT_EQ(backend_->VnodeBytes(2), 5u);
}

TEST_F(LsmBackendTest, ExtractVnodeBlobsMatchesPerVnodeExtraction) {
  for (int v = 0; v < 6; v += 2) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(backend_
                      ->Put(static_cast<uint32_t>(v), "k" + std::to_string(i),
                            "v" + std::to_string(v) + "-" + std::to_string(i),
                            8)
                      .ok());
    }
  }
  // The single-scan blobs must be byte-identical to what the per-vnode
  // path produces — including for an owned-but-empty vnode (5) — so every
  // downstream consumer (replication, handover ingest) is unaffected.
  std::vector<uint32_t> owned = {0, 2, 4, 5};
  auto blobs = backend_->ExtractVnodeBlobs(owned);
  ASSERT_TRUE(blobs.ok());
  ASSERT_EQ(blobs->size(), owned.size());
  for (uint32_t v : owned) {
    auto single = backend_->ExtractVnodes({v});
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(blobs->at(v), *single) << "vnode " << v;
  }
  // And they ingest cleanly.
  auto other = LsmStateBackend::Open(&env_, "/state/op-2", "op", 2);
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE((*other)->IngestVnodes(blobs->at(2), false).ok());
  std::string v;
  ASSERT_TRUE((*other)->Get(2, "k7", &v).ok());
  EXPECT_EQ(v, "v2-7");

  // A non-contiguous subset (vnode 2's range lies between the two and
  // must be skipped, not leaked) gives the same per-vnode blobs.
  std::vector<uint32_t> subset = {0, 4};
  auto some = backend_->ExtractVnodeBlobs(subset);
  ASSERT_TRUE(some.ok());
  ASSERT_EQ(some->size(), subset.size());
  for (uint32_t v : subset) {
    auto single = backend_->ExtractVnodes({v});
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(some->at(v), *single) << "vnode " << v;
  }
}

TEST_F(LsmBackendTest, ChangesAreNotRecordedUntilTracked) {
  ASSERT_TRUE(backend_->Put(1, "a", "x", 1).ok());
  EXPECT_TRUE(backend_->TrackChanges());
  auto logs = backend_->TakeVnodeChanges({1});
  ASSERT_TRUE(logs.ok());
  EXPECT_TRUE(logs->at(1).empty());
}

TEST_F(LsmBackendTest, TakeVnodeChangesReturnsLatestPerKeyOnce) {
  ASSERT_TRUE(backend_->TrackChanges());
  ASSERT_TRUE(backend_->Put(1, "b", "b1", 2).ok());
  ASSERT_TRUE(backend_->Put(1, "a", "a1", 2).ok());
  ASSERT_TRUE(backend_->Put(1, "b", "b2", 0).ok());
  ASSERT_TRUE(backend_->Delete(1, "a", 2).ok());
  ASSERT_TRUE(backend_->Put(2, "c", "c1", 2).ok());
  auto logs = backend_->TakeVnodeChanges({1});
  ASSERT_TRUE(logs.ok());
  std::vector<std::string> seen;
  ASSERT_TRUE(ForEachChange(logs->at(1),
                            [&](ChangeKind kind, std::string_view key,
                                std::string_view value) {
                              seen.push_back(
                                  (kind == ChangeKind::kPut ? "put " : "del ") +
                                  std::string(key) + "=" + std::string(value));
                              return Status::OK();
                            })
                  .ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"del a=", "put b=b2"}));
  // Taken once: vnode 1 starts over, vnode 2 was not asked for.
  auto again = backend_->TakeVnodeChanges({1, 2});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->at(1).empty());
  EXPECT_FALSE(again->at(2).empty());
}

TEST_F(LsmBackendTest, FoldedBlobEqualsFreshExtraction) {
  // Base blob, then puts (new and overwritten keys) and deletes tracked as
  // changes: folding the changes into the base must reproduce exactly the
  // blob a fresh extraction of the vnode returns.
  for (int i = 0; i < 30; i += 2) {
    ASSERT_TRUE(
        backend_->Put(3, "k" + std::to_string(i), "old" + std::to_string(i), 4)
            .ok());
  }
  ASSERT_TRUE(backend_->TrackChanges());
  auto base = backend_->ExtractVnodes({3});
  ASSERT_TRUE(base.ok());
  std::string tail;
  for (int round = 0; round < 3; ++round) {
    for (int i = round; i < 30; i += 5) {
      ASSERT_TRUE(backend_
                      ->Put(3, "k" + std::to_string(i),
                            "r" + std::to_string(round), 4)
                      .ok());
    }
    ASSERT_TRUE(backend_->Delete(3, "k" + std::to_string(2 * round + 10), 4)
                    .ok());
    auto logs = backend_->TakeVnodeChanges({3});
    ASSERT_TRUE(logs.ok());
    tail += logs->at(3);  // change logs concatenate
  }
  auto folded =
      LsmStateBackend::FoldVnodeBlob(*base, tail, backend_->VnodeBytes(3));
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  auto fresh = backend_->ExtractVnodes({3});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*folded, *fresh);

  // A log with an unknown entry kind is refused, never half-merged.
  std::string bad = tail;
  bad.push_back(static_cast<char>(7));
  EXPECT_EQ(LsmStateBackend::FoldVnodeBlob(*base, bad, 0).status().code(),
            StatusCode::kCorruption);
}

// ----------------------------------------------------- ModeledStateBackend

TEST(ModeledBackendTest, ByteAccounting) {
  ModeledStateBackend backend("op", 0);
  backend.AddBytes(1, 1000);
  backend.AddBytes(2, 500);
  backend.RemoveBytes(1, 300);
  EXPECT_EQ(backend.VnodeBytes(1), 700u);
  EXPECT_EQ(backend.SizeBytes(), 1200u);
}

TEST(ModeledBackendTest, RemoveClampsAtZero) {
  ModeledStateBackend backend("op", 0);
  backend.AddBytes(1, 100);
  backend.RemoveBytes(1, 1000);
  EXPECT_EQ(backend.VnodeBytes(1), 0u);
}

TEST(ModeledBackendTest, CheckpointsAreIncremental) {
  ModeledStateBackend backend("op", 0);
  backend.AddBytes(1, 10000);
  auto c1 = backend.Checkpoint(1);
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(c1->TotalBytes(), 10000u);
  EXPECT_EQ(c1->DeltaBytes(), 10000u);

  backend.AddBytes(1, 2000);
  auto c2 = backend.Checkpoint(2);
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c2->TotalBytes(), 12000u);
  EXPECT_EQ(c2->DeltaBytes(), 2000u) << "only the new bytes are delta";

  // Nothing new: empty delta.
  auto c3 = backend.Checkpoint(3);
  ASSERT_TRUE(c3.ok());
  EXPECT_EQ(c3->DeltaBytes(), 0u);
}

TEST(ModeledBackendTest, ExtractIngestMovesBytes) {
  ModeledStateBackend origin("op", 0);
  origin.AddBytes(1, 4000);
  origin.AddBytes(2, 6000);
  auto blob = origin.ExtractVnodes({2});
  ASSERT_TRUE(blob.ok());

  ModeledStateBackend target("op", 1);
  ASSERT_TRUE(target.IngestVnodes(*blob, false).ok());
  EXPECT_EQ(target.VnodeBytes(2), 6000u);
  ASSERT_TRUE(origin.DropVnodes({2}).ok());
  EXPECT_EQ(origin.SizeBytes(), 4000u);
}

TEST(ModeledBackendTest, ExtractVnodeBlobsMatchesPerVnodeExtraction) {
  ModeledStateBackend backend("op", 0);
  backend.AddBytes(1, 4000);
  backend.AddBytes(2, 6000);
  auto blobs = backend.ExtractVnodeBlobs({1, 2, 9});
  ASSERT_TRUE(blobs.ok());
  ASSERT_EQ(blobs->size(), 3u);
  for (uint32_t v : {1u, 2u, 9u}) {
    auto single = backend.ExtractVnodes({v});
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(blobs->at(v), *single) << "vnode " << v;
  }
}

TEST(ModeledBackendTest, IngestedBytesAppearInNextDelta) {
  ModeledStateBackend target("op", 1);
  ModeledStateBackend origin("op", 0);
  origin.AddBytes(1, 5000);
  auto blob = origin.ExtractVnodes({1});
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(target.IngestVnodes(*blob, false).ok());
  auto ckpt = target.Checkpoint(1);
  ASSERT_TRUE(ckpt.ok());
  EXPECT_EQ(ckpt->DeltaBytes(), 5000u);
}

TEST(ModeledBackendTest, AdoptedCheckpointBytesAreNotReplicatedAgain) {
  ModeledStateBackend origin("op", 0);
  origin.AddBytes(7, 123456);
  auto ckpt = origin.Checkpoint(1);
  ASSERT_TRUE(ckpt.ok());

  ModeledStateBackend target("op", 1);
  target.AdoptCheckpointVnodes(*ckpt, {7});
  EXPECT_EQ(target.VnodeBytes(7), 123456u);
  auto next = target.Checkpoint(1);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->DeltaBytes(), 0u)
      << "adopted files are already durable; no new delta";
  EXPECT_EQ(next->TotalBytes(), 123456u);
}

TEST(ModeledBackendTest, ValueOperationsAreNotSupported) {
  ModeledStateBackend backend("op", 0);
  std::string v;
  EXPECT_EQ(backend.Get(1, "k", &v).code(), StatusCode::kNotSupported);
  EXPECT_TRUE(backend.ScanVnode(1)->empty());
}

}  // namespace
}  // namespace rhino::state
