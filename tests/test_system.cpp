#include "model/system.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "test_helpers.h"
#include "util/check.h"
#include "util/rng.h"

namespace mmr {
namespace {

using testing::tiny_system;
using testing::two_server_system;

/// The message finalize() rejects `sys` with ("" if it accepts it).
std::string finalize_error(SystemModel& sys) {
  try {
    sys.finalize();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

/// A page on `host` with the given compulsory and (probability 0.5)
/// optional objects.
Page make_page(ServerId host, std::vector<ObjectId> compulsory,
               std::vector<ObjectId> optional = {}) {
  Page p;
  p.host = host;
  p.html_bytes = 10;
  p.frequency = 1.0;
  p.compulsory = std::move(compulsory);
  for (const ObjectId k : optional) p.optional.push_back({k, 0.5});
  return p;
}

TEST(SystemModel, TinySystemIndices) {
  const SystemModel sys = tiny_system();
  EXPECT_EQ(sys.num_servers(), 1u);
  EXPECT_EQ(sys.num_pages(), 1u);
  EXPECT_EQ(sys.num_objects(), 3u);
  ASSERT_EQ(sys.pages_on_server(0).size(), 1u);
  EXPECT_EQ(sys.pages_on_server(0)[0], 0u);
  EXPECT_EQ(sys.objects_referenced(0).size(), 3u);
  EXPECT_EQ(sys.html_bytes_on_server(0), 200u);
  // HTML + 300 + 500 + 400.
  EXPECT_EQ(sys.full_replication_bytes(0), 200u + 1200u);
  EXPECT_DOUBLE_EQ(sys.page_request_rate(0), 2.0);
}

TEST(SystemModel, ObjectRefsTrackRoleAndSlot) {
  const SystemModel sys = tiny_system();
  const auto& refs0 = sys.object_refs_on_server(0, 0);
  ASSERT_EQ(refs0.size(), 1u);
  EXPECT_TRUE(refs0[0].compulsory);
  EXPECT_EQ(refs0[0].index, 0u);

  const auto& refs2 = sys.object_refs_on_server(0, 2);
  ASSERT_EQ(refs2.size(), 1u);
  EXPECT_FALSE(refs2[0].compulsory);
  EXPECT_EQ(refs2[0].index, 0u);
}

TEST(SystemModel, SharedObjectAppearsInBothServers) {
  const SystemModel sys = two_server_system();
  // Object 0 ("big") is used by pages on both servers.
  EXPECT_EQ(sys.object_refs_on_server(0, 0).size(), 1u);
  EXPECT_EQ(sys.object_refs_on_server(1, 0).size(), 1u);
  // Object 3 ("shared") is used by two pages of server 0.
  EXPECT_EQ(sys.object_refs_on_server(0, 3).size(), 2u);
  EXPECT_TRUE(sys.object_refs_on_server(1, 3).empty());
}

TEST(SystemModel, FullReplicationCountsDistinctObjectsOnce) {
  const SystemModel sys = two_server_system();
  // Server 0: html 1K+2K, objects big(40K)+shared(8K)+mid(10K)+small(2K)+
  // extra(5K) each counted once.
  EXPECT_EQ(sys.full_replication_bytes(0),
            (1 + 2 + 40 + 8 + 10 + 2 + 5) * testing::kKB);
}

TEST(SystemModel, AccessBeforeFinalizeThrows) {
  SystemModel sys;
  sys.add_server({});
  EXPECT_THROW(sys.pages_on_server(0), CheckError);
  EXPECT_THROW(sys.objects_referenced(0), CheckError);
}

TEST(SystemModel, FinalizeTwiceThrows) {
  SystemModel sys = tiny_system();
  EXPECT_THROW(sys.finalize(), CheckError);
}

TEST(SystemModel, AddAfterFinalizeThrows) {
  SystemModel sys = tiny_system();
  EXPECT_THROW(sys.add_server({}), CheckError);
  EXPECT_THROW(sys.add_object({100}), CheckError);
  EXPECT_THROW(sys.add_page({}), CheckError);
}

TEST(SystemModelValidation, RejectsInvalidHost) {
  SystemModel sys;
  sys.add_server({});
  sys.add_object({100});
  Page p;
  p.host = 5;  // no such server
  p.html_bytes = 10;
  sys.add_page(std::move(p));
  EXPECT_THROW(sys.finalize(), CheckError);
}

TEST(SystemModelValidation, RejectsInvalidObjectReference) {
  SystemModel sys;
  sys.add_server({});
  Page p;
  p.host = 0;
  p.html_bytes = 10;
  p.compulsory = {7};  // no such object
  sys.add_page(std::move(p));
  EXPECT_NE(finalize_error(sys).find("invalid object 7"), std::string::npos);
}

TEST(SystemModelValidation, RejectsDuplicateReference) {
  SystemModel sys;
  sys.add_server({});
  const ObjectId k = sys.add_object({100});
  Page p;
  p.host = 0;
  p.html_bytes = 10;
  p.compulsory = {k, k};
  sys.add_page(std::move(p));
  EXPECT_NE(finalize_error(sys).find("twice"), std::string::npos);
}

TEST(SystemModelValidation, RejectsCompulsoryAndOptionalOverlap) {
  SystemModel sys;
  sys.add_server({});
  const ObjectId k = sys.add_object({100});
  Page p;
  p.host = 0;
  p.html_bytes = 10;
  p.compulsory = {k};
  p.optional = {{k, 0.5}};
  sys.add_page(std::move(p));
  EXPECT_NE(finalize_error(sys).find("both compulsorily and optionally"),
            std::string::npos);
}

TEST(SystemModelValidation, RejectsBadOptionalProbability) {
  for (double prob : {0.0, -0.1, 1.5}) {
    SystemModel sys;
    sys.add_server({});
    const ObjectId k = sys.add_object({100});
    Page p;
    p.host = 0;
    p.html_bytes = 10;
    p.optional = {{k, prob}};
    sys.add_page(std::move(p));
    EXPECT_THROW(sys.finalize(), CheckError) << "prob=" << prob;
  }
}

TEST(SystemModelValidation, RejectsZeroSizes) {
  {
    SystemModel sys;
    sys.add_server({});
    sys.add_object({0});  // zero-size object
    EXPECT_THROW(sys.finalize(), CheckError);
  }
  {
    SystemModel sys;
    sys.add_server({});
    Page p;
    p.host = 0;
    p.html_bytes = 0;  // zero-size HTML
    sys.add_page(std::move(p));
    EXPECT_THROW(sys.finalize(), CheckError);
  }
}

TEST(SystemModelValidation, RejectsBadServerParameters) {
  auto attempt = [](auto mutate) {
    SystemModel sys;
    Server s;
    s.local_rate = 100;
    s.repo_rate = 10;
    mutate(s);
    sys.add_server(s);
    EXPECT_THROW(sys.finalize(), CheckError);
  };
  attempt([](Server& s) { s.local_rate = 0; });
  attempt([](Server& s) { s.repo_rate = -1; });
  attempt([](Server& s) { s.ovhd_local = -0.1; });
  attempt([](Server& s) { s.proc_capacity = 0; });
}

TEST(SystemModelValidation, RejectsEmptyModel) {
  SystemModel sys;
  EXPECT_THROW(sys.finalize(), CheckError);
}

TEST(SystemModelValidation, NegativeFrequencyRejected) {
  SystemModel sys;
  sys.add_server({});
  Page p;
  p.host = 0;
  p.html_bytes = 10;
  p.frequency = -1.0;
  sys.add_page(std::move(p));
  EXPECT_THROW(sys.finalize(), CheckError);
}

TEST(SystemModelValidation, ReportsTheFirstBadPageInPageOrder) {
  // Page 1 (host 1) repeats an object, page 2 (host 0) names a missing one
  // and page 3 mixes roles: page 1 is reported whatever the hosts.
  SystemModel sys;
  sys.add_server({});
  sys.add_server({});
  const ObjectId a = sys.add_object({100});
  const ObjectId b = sys.add_object({200});
  sys.add_page(make_page(0, {a, b}));
  sys.add_page(make_page(1, {b, a, b}));
  sys.add_page(make_page(0, {a, 9}));
  sys.add_page(make_page(1, {a}, {a}));
  const std::string msg = finalize_error(sys);
  EXPECT_NE(msg.find("page 1 references object 1 twice"), std::string::npos)
      << msg;
}

TEST(SystemModelValidation, SameObjectOnConsecutivePagesIsNoDuplicate) {
  // Duplicate detection is per page: neighbours sharing every object, in
  // either role, are a valid instance.
  SystemModel sys;
  sys.add_server({});
  const ObjectId a = sys.add_object({100});
  const ObjectId b = sys.add_object({200});
  sys.add_page(make_page(0, {a}, {b}));
  sys.add_page(make_page(0, {b}, {a}));
  sys.add_page(make_page(0, {a, b}));
  EXPECT_EQ(finalize_error(sys), "");
  EXPECT_EQ(sys.objects_referenced(0), (std::vector<ObjectId>{a, b}));
}

// The generator emits each site's pages contiguously; finalize() must not
// depend on that. A randomized instance whose pages interleave hosts is
// checked against an independent build of ranks and the reference CSR.
TEST(SystemModel, InterleavedHostsMatchReferenceBuild) {
  constexpr std::uint32_t kServers = 4;
  constexpr std::uint32_t kObjects = 40;
  SystemModel sys;
  for (std::uint32_t i = 0; i < kServers; ++i) sys.add_server({});
  for (std::uint32_t k = 0; k < kObjects; ++k) {
    sys.add_object({100 + 37 * ((k * 7) % 11)});  // repeated sizes: ties
  }
  Rng rng(2024);
  for (PageId j = 0; j < 60; ++j) {
    const auto host = static_cast<ServerId>(rng.bounded(kServers));
    const auto n = static_cast<std::uint32_t>(rng.bounded(9));
    const auto n_comp = static_cast<std::uint32_t>(rng.bounded(n + 1));
    const auto picks = rng.sample_without_replacement(kObjects, n);
    const auto split = picks.begin() + n_comp;
    sys.add_page(make_page(host, std::vector<ObjectId>(picks.begin(), split),
                           std::vector<ObjectId>(split, picks.end())));
  }
  sys.finalize();

  // Reference: std::set for the distinct objects, a map for the refs.
  std::uint64_t rank_total = 0;
  for (ServerId i = 0; i < kServers; ++i) {
    std::set<ObjectId> objects;
    std::map<ObjectId, std::vector<PageObjectRef>> refs;
    std::vector<PageId> hosted;
    for (PageId j = 0; j < sys.num_pages(); ++j) {
      const Page& p = sys.page(j);
      if (p.host != i) continue;
      EXPECT_EQ(sys.page_pos_in_host(j), hosted.size());
      hosted.push_back(j);
      for (std::uint32_t x = 0; x < p.compulsory.size(); ++x) {
        objects.insert(p.compulsory[x]);
        refs[p.compulsory[x]].push_back({j, true, x});
      }
      for (std::uint32_t x = 0; x < p.optional.size(); ++x) {
        objects.insert(p.optional[x].object);
        refs[p.optional[x].object].push_back({j, false, x});
      }
    }
    EXPECT_EQ(sys.pages_on_server(i), hosted);
    const std::vector<ObjectId> ranked(objects.begin(), objects.end());
    ASSERT_EQ(sys.objects_referenced(i), ranked);
    EXPECT_EQ(sys.rank_base(i), rank_total);
    rank_total += ranked.size();
    std::uint64_t full = sys.html_bytes_on_server(i);
    for (std::uint32_t r = 0; r < ranked.size(); ++r) {
      full += sys.object_bytes(ranked[r]);
      EXPECT_EQ(sys.object_rank_on_server(i, ranked[r]), r);
      const RefSpan got = sys.refs_at_rank(i, r);
      const std::vector<PageObjectRef>& want = refs[ranked[r]];
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t x = 0; x < want.size(); ++x) {
        EXPECT_EQ(got[x].page, want[x].page);
        EXPECT_EQ(got[x].compulsory, want[x].compulsory);
        EXPECT_EQ(got[x].index, want[x].index);
      }
    }
    EXPECT_EQ(sys.full_replication_bytes(i), full);
  }
  EXPECT_EQ(sys.total_ref_ranks(), rank_total);
  for (PageId j = 0; j < sys.num_pages(); ++j) {
    const Page& p = sys.page(j);
    for (std::uint32_t x = 0; x < p.compulsory.size(); ++x) {
      EXPECT_EQ(sys.comp_rank(j, x),
                sys.object_rank_on_server(p.host, p.compulsory[x]));
    }
    for (std::uint32_t x = 0; x < p.optional.size(); ++x) {
      EXPECT_EQ(sys.opt_rank(j, x),
                sys.object_rank_on_server(p.host, p.optional[x].object));
    }
  }
}

TEST(TransferSeconds, Basics) {
  EXPECT_DOUBLE_EQ(transfer_seconds(1000, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(transfer_seconds(0, 5.0), 0.0);
}

}  // namespace
}  // namespace mmr
