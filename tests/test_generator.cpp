// Workload generator: Table 1 ranges, determinism, popularity split, and the
// capacity-rescaling helpers.
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_helpers.h"
#include "util/check.h"
#include "workload/scale.h"
#include "workload/stats.h"

namespace mmr {
namespace {

TEST(Generator, DeterministicInSeed) {
  const WorkloadParams p = testing::small_params();
  const SystemModel a = generate_workload(p, 7);
  const SystemModel b = generate_workload(p, 7);
  ASSERT_EQ(a.num_pages(), b.num_pages());
  ASSERT_EQ(a.num_objects(), b.num_objects());
  for (PageId j = 0; j < a.num_pages(); ++j) {
    EXPECT_EQ(a.page(j).host, b.page(j).host);
    EXPECT_EQ(a.page(j).html_bytes, b.page(j).html_bytes);
    EXPECT_DOUBLE_EQ(a.page(j).frequency, b.page(j).frequency);
    EXPECT_EQ(a.page(j).compulsory, b.page(j).compulsory);
  }
  for (ObjectId k = 0; k < a.num_objects(); ++k) {
    EXPECT_EQ(a.object_bytes(k), b.object_bytes(k));
  }
}

TEST(Generator, DifferentSeedsProduceDifferentWorkloads) {
  const WorkloadParams p = testing::small_params();
  const SystemModel a = generate_workload(p, 1);
  const SystemModel b = generate_workload(p, 2);
  bool any_difference = a.num_pages() != b.num_pages();
  if (!any_difference) {
    for (PageId j = 0; j < a.num_pages() && !any_difference; ++j) {
      any_difference = a.page(j).compulsory != b.page(j).compulsory;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Generator, RespectsTableRanges) {
  const WorkloadParams p = testing::small_params();
  const SystemModel sys = generate_workload(p, 3);

  EXPECT_EQ(sys.num_servers(), p.num_servers);
  EXPECT_EQ(sys.num_objects(), p.num_objects);
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    const std::size_t n = sys.pages_on_server(i).size();
    EXPECT_GE(n, p.min_pages_per_server);
    EXPECT_LE(n, p.max_pages_per_server);
  }
  for (PageId j = 0; j < sys.num_pages(); ++j) {
    const Page& page = sys.page(j);
    EXPECT_GE(page.compulsory.size(), p.min_compulsory_per_page);
    EXPECT_LE(page.compulsory.size(), p.max_compulsory_per_page);
    if (!page.optional.empty()) {
      EXPECT_GE(page.optional.size(), p.min_optional_per_page);
      EXPECT_LE(page.optional.size(), p.max_optional_per_page);
      for (const OptionalRef& ref : page.optional) {
        EXPECT_DOUBLE_EQ(ref.probability,
                         p.p_interested * p.optional_request_fraction);
      }
    }
    // HTML size within the union of class ranges.
    EXPECT_GE(page.html_bytes, p.html_sizes.front().lo_bytes);
    EXPECT_LE(page.html_bytes, p.html_sizes.back().hi_bytes);
  }
  for (ObjectId k = 0; k < sys.num_objects(); ++k) {
    EXPECT_GE(sys.object_bytes(k), p.object_sizes.front().lo_bytes);
    EXPECT_LE(sys.object_bytes(k), p.object_sizes.back().hi_bytes);
  }
}

TEST(Generator, HotTrafficShareNearTarget) {
  WorkloadParams p = testing::small_params();
  p.min_pages_per_server = 100;
  p.max_pages_per_server = 100;
  const SystemModel sys = generate_workload(p, 4);
  const WorkloadStats ws = characterize(sys, p.hot_page_fraction);
  EXPECT_NEAR(ws.measured_hot_traffic_share, p.hot_traffic_fraction, 0.05);
}

TEST(Generator, PageRequestRateMatchesParameter) {
  const WorkloadParams p = testing::small_params();
  const SystemModel sys = generate_workload(p, 5);
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    EXPECT_NEAR(sys.page_request_rate(i), p.page_requests_per_sec_per_server,
                1e-9);
  }
}

TEST(Generator, StorageFractionCalibratesToFootprint) {
  WorkloadParams p = testing::small_params();
  p.storage_fraction = 1.0;
  SystemModel sys = generate_workload(p, 6);
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    EXPECT_EQ(sys.server(i).storage_capacity, sys.full_replication_bytes(i));
  }
  set_storage_fraction(sys, 0.4);
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    EXPECT_NEAR(static_cast<double>(sys.server(i).storage_capacity),
                0.4 * static_cast<double>(sys.full_replication_bytes(i)),
                1.0);
  }
}

TEST(Generator, SetProcessingCapacityHelpers) {
  WorkloadParams p = testing::small_params();
  SystemModel sys = generate_workload(p, 8);
  std::vector<double> base(sys.num_servers(), 100.0);
  set_processing_capacity(sys, base, 0.5);
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    EXPECT_DOUBLE_EQ(sys.server(i).proc_capacity, 50.0);
  }
  std::vector<double> absolute(sys.num_servers(), 33.0);
  set_processing_capacities(sys, absolute);
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    EXPECT_DOUBLE_EQ(sys.server(i).proc_capacity, 33.0);
  }
  set_repo_capacity(sys, 200.0, 0.9);
  EXPECT_DOUBLE_EQ(sys.repository().proc_capacity, 180.0);
}

TEST(Generator, PagesNeverReferenceObjectTwice) {
  const SystemModel sys = generate_workload(testing::small_params(), 9);
  for (PageId j = 0; j < sys.num_pages(); ++j) {
    const Page& p = sys.page(j);
    std::vector<ObjectId> all = p.compulsory;
    for (const OptionalRef& r : p.optional) all.push_back(r.object);
    std::sort(all.begin(), all.end());
    EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
  }
}

TEST(Generator, FractionOfPagesWithOptionalNearTarget) {
  WorkloadParams p = testing::small_params();
  p.num_servers = 5;
  p.min_pages_per_server = 200;
  p.max_pages_per_server = 200;
  const SystemModel sys = generate_workload(p, 10);
  const WorkloadStats ws = characterize(sys);
  EXPECT_NEAR(ws.fraction_pages_with_optional, p.pages_with_optional, 0.03);
}

TEST(Generator, SampleSizeStaysInClassBounds) {
  std::vector<SizeClass> classes = {{0.5, 10, 20}, {0.5, 100, 200}};
  Rng rng(11);
  int low_class = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t s = sample_size(classes, rng);
    const bool in_low = s >= 10 && s <= 20;
    const bool in_high = s >= 100 && s <= 200;
    ASSERT_TRUE(in_low || in_high) << s;
    low_class += in_low;
  }
  EXPECT_NEAR(low_class / 2000.0, 0.5, 0.05);
}

TEST(GeneratorValidation, RejectsBadParams) {
  auto expect_invalid = [](auto mutate) {
    WorkloadParams p = testing::small_params();
    mutate(p);
    EXPECT_THROW(p.validate(), CheckError);
  };
  expect_invalid([](WorkloadParams& p) { p.num_servers = 0; });
  expect_invalid([](WorkloadParams& p) {
    p.min_pages_per_server = 10;
    p.max_pages_per_server = 5;
  });
  expect_invalid([](WorkloadParams& p) {
    p.max_objects_per_server = p.num_objects + 1;
  });
  expect_invalid([](WorkloadParams& p) {
    // A page could need more objects than the smallest pool.
    p.max_compulsory_per_page = 200;
    p.max_optional_per_page = 200;
    p.min_objects_per_server = 100;
  });
  expect_invalid([](WorkloadParams& p) { p.hot_page_fraction = 0.0; });
  expect_invalid([](WorkloadParams& p) { p.hot_traffic_fraction = 1.0; });
  expect_invalid([](WorkloadParams& p) { p.html_sizes.clear(); });
  expect_invalid([](WorkloadParams& p) {
    p.object_sizes = {{0.5, 10, 20}};  // weights don't sum to 1
  });
  expect_invalid([](WorkloadParams& p) { p.p_interested = 1.5; });
  expect_invalid([](WorkloadParams& p) { p.local_rate_lo = 0; });
  expect_invalid([](WorkloadParams& p) {
    p.page_requests_per_sec_per_server = 0;
  });
}

// Recorded before sampling moved onto a membership bitmap and finalize()
// onto flat object stamps: both must leave every instance bit-identical.
TEST(GeneratorGolden, FinalizedInstanceHashes) {
  const WorkloadParams table1;
  const WorkloadParams small = scale_params(ScaleTier::kSmall);
  EXPECT_EQ(testing::model_hash(generate_workload(table1, 11)),
            0xb8275d2a3158eaf9u);
  EXPECT_EQ(testing::model_hash(generate_workload(table1, 7919)),
            0x9d86ed51fac62af8u);
  EXPECT_EQ(testing::model_hash(generate_workload(small, 11)),
            0x3ec70d577d025383u);
  EXPECT_EQ(testing::model_hash(generate_workload(small, 601)),
            0x9032638f7311be53u);
}

TEST(WorkloadStats, ToStringMentionsKeyNumbers) {
  const SystemModel sys = generate_workload(testing::small_params(), 12);
  const std::string s = characterize(sys).to_string();
  EXPECT_NE(s.find("pages"), std::string::npos);
  EXPECT_NE(s.find("hot"), std::string::npos);
  EXPECT_NE(s.find("footprint"), std::string::npos);
}

TEST(WorkloadStats, SharesPrintUnsigned) {
  // One page, with an optional object and all of its server's traffic.
  const std::string s = characterize(testing::tiny_system()).to_string();
  EXPECT_NE(s.find("\npages with optional: 100.0%\n"), std::string::npos)
      << s;
  EXPECT_NE(s.find("\nhot 10.0% of pages carry 100.0% of traffic\n"),
            std::string::npos)
      << s;
}

}  // namespace
}  // namespace mmr
