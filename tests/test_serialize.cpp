#include "io/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "core/partition.h"
#include "core/policy.h"
#include "model/cost.h"
#include "test_helpers.h"
#include "workload/generator.h"
#include "workload/scale.h"

namespace mmr {
namespace {

void expect_systems_equal(const SystemModel& a, const SystemModel& b) {
  ASSERT_EQ(a.num_servers(), b.num_servers());
  ASSERT_EQ(a.num_objects(), b.num_objects());
  ASSERT_EQ(a.num_pages(), b.num_pages());
  EXPECT_EQ(a.repository().proc_capacity, b.repository().proc_capacity);
  for (ServerId i = 0; i < a.num_servers(); ++i) {
    EXPECT_EQ(a.server(i).proc_capacity, b.server(i).proc_capacity);
    EXPECT_EQ(a.server(i).storage_capacity, b.server(i).storage_capacity);
    EXPECT_DOUBLE_EQ(a.server(i).ovhd_local, b.server(i).ovhd_local);
    EXPECT_DOUBLE_EQ(a.server(i).ovhd_repo, b.server(i).ovhd_repo);
    EXPECT_DOUBLE_EQ(a.server(i).local_rate, b.server(i).local_rate);
    EXPECT_DOUBLE_EQ(a.server(i).repo_rate, b.server(i).repo_rate);
  }
  for (ObjectId k = 0; k < a.num_objects(); ++k) {
    EXPECT_EQ(a.object_bytes(k), b.object_bytes(k));
  }
  for (PageId j = 0; j < a.num_pages(); ++j) {
    const Page& pa = a.page(j);
    const Page& pb = b.page(j);
    EXPECT_EQ(pa.host, pb.host);
    EXPECT_EQ(pa.html_bytes, pb.html_bytes);
    EXPECT_DOUBLE_EQ(pa.frequency, pb.frequency);
    EXPECT_DOUBLE_EQ(pa.optional_scale, pb.optional_scale);
    EXPECT_EQ(pa.compulsory, pb.compulsory);
    ASSERT_EQ(pa.optional.size(), pb.optional.size());
    for (std::size_t x = 0; x < pa.optional.size(); ++x) {
      EXPECT_EQ(pa.optional[x].object, pb.optional[x].object);
      EXPECT_DOUBLE_EQ(pa.optional[x].probability,
                       pb.optional[x].probability);
    }
  }
}

TEST(SerializeSystem, RoundTripTiny) {
  const SystemModel original = testing::tiny_system();
  std::stringstream ss;
  save_system(original, ss);
  const SystemModel loaded = load_system(ss);
  expect_systems_equal(original, loaded);
}

TEST(SerializeSystem, RoundTripGeneratedWorkload) {
  const SystemModel original =
      generate_workload(testing::small_params(), 33);
  std::stringstream ss;
  save_system(original, ss);
  const SystemModel loaded = load_system(ss);
  expect_systems_equal(original, loaded);
}

TEST(SerializeSystem, UnlimitedCapacitiesRoundTrip) {
  const SystemModel original =
      testing::tiny_system(kUnlimited, 4096, kUnlimited);
  std::stringstream ss;
  save_system(original, ss);
  const SystemModel loaded = load_system(ss);
  EXPECT_EQ(loaded.server(0).proc_capacity, kUnlimited);
  EXPECT_EQ(loaded.repository().proc_capacity, kUnlimited);
}

TEST(SerializeSystem, RejectsBadHeader) {
  std::stringstream ss("not-a-header v9\n");
  EXPECT_THROW(load_system(ss), CheckError);
}

TEST(SerializeSystem, RejectsTruncatedInput) {
  const SystemModel original = testing::tiny_system();
  std::stringstream ss;
  save_system(original, ss);
  std::string text = ss.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_THROW(load_system(truncated), CheckError);
}

TEST(SerializeSystem, RejectsWrongKeyword) {
  std::stringstream ss(
      "mmrepl-system v1\nrepository 5\nbanana 1\n");
  EXPECT_THROW(load_system(ss), CheckError);
}

TEST(SerializeSystem, ErrorMentionsLineNumber) {
  std::stringstream ss("mmrepl-system v1\nrepository notanumber\n");
  try {
    load_system(ss);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

/// The tiny system's text with field `field` (0 = host) of its page line
/// replaced by `value`.
std::string tiny_text_with_page_field(std::size_t field,
                                      const std::string& value) {
  std::stringstream ss;
  save_system(testing::tiny_system(), ss);
  std::string text = ss.str();
  const std::size_t line = text.find("\npage ") + 6;
  std::size_t begin = line;
  for (std::size_t f = 0; f < field; ++f) begin = text.find(' ', begin) + 1;
  const std::size_t end = text.find_first_of(" \n", begin);
  text.replace(begin, end - begin, value);
  return text;
}

// A count no input could hold must be rejected before it sizes an
// allocation (it used to abort in vector::reserve with std::length_error).
TEST(SerializeSystem, RejectsHugeCompulsoryCount) {
  std::stringstream ss(tiny_text_with_page_field(4, "4611686018427387904"));
  try {
    load_system(ss);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("compulsory count"),
              std::string::npos)
        << e.what();
  }
}

TEST(SerializeSystem, RejectsHugeOptionalCount) {
  std::stringstream ss(tiny_text_with_page_field(5, "4611686018427387904"));
  try {
    load_system(ss);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("optional count"), std::string::npos)
        << e.what();
  }
}

TEST(SerializeSystem, CountsWithinInputStillParse) {
  // The unmodified counts (2 compulsory, 1 optional) pass the bound.
  std::stringstream ss(tiny_text_with_page_field(4, "2"));
  EXPECT_NO_THROW(load_system(ss));
}

TEST(SerializeAssignment, RoundTrip) {
  const SystemModel sys = generate_workload(testing::small_params(), 34);
  Assignment asg(sys);
  partition_all(sys, asg);
  std::stringstream ss;
  save_assignment(asg, ss);
  const Assignment loaded = load_assignment(sys, ss);
  for (PageId j = 0; j < sys.num_pages(); ++j) {
    const Page& p = sys.page(j);
    for (std::uint32_t idx = 0; idx < p.compulsory.size(); ++idx) {
      ASSERT_EQ(loaded.comp_local(j, idx), asg.comp_local(j, idx));
    }
    for (std::uint32_t idx = 0; idx < p.optional.size(); ++idx) {
      ASSERT_EQ(loaded.opt_local(j, idx), asg.opt_local(j, idx));
    }
  }
  // Caches agree too (loaded was built via set_* calls).
  EXPECT_NEAR(objective_total_cached(loaded, {2, 1}),
              objective_total_cached(asg, {2, 1}), 1e-6);
}

// Recorded before save_assignment built each page line in one buffer: the
// placement file of a solved small-tier instance, byte for byte.
TEST(SerializeAssignment, SmallTierPlacementBytesPinned) {
  const SystemModel sys = generate_workload(scale_params(ScaleTier::kSmall), 11);
  const PolicyResult solved = run_replication_policy(sys);
  std::ostringstream os;
  save_assignment(solved.assignment, os);
  const std::string text = os.str();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  EXPECT_EQ(text.size(), 126471u);
  EXPECT_EQ(h, 0xbfc48fe803e29236u);
}

TEST(SerializeAssignment, RejectsWrongSystem) {
  const SystemModel sys_a = generate_workload(testing::small_params(), 35);
  WorkloadParams other = testing::small_params();
  other.min_pages_per_server = 50;
  other.max_pages_per_server = 60;
  const SystemModel sys_b = generate_workload(other, 35);

  Assignment asg(sys_a);
  std::stringstream ss;
  save_assignment(asg, ss);
  EXPECT_THROW(load_assignment(sys_b, ss), CheckError);
}

TEST(SerializeAssignment, RejectsCorruptBits) {
  const SystemModel sys = testing::tiny_system();
  std::stringstream ss("mmrepl-assignment v1\npages 1\npage 0 1X 0\n");
  EXPECT_THROW(load_assignment(sys, ss), CheckError);
  std::stringstream wrong_width(
      "mmrepl-assignment v1\npages 1\npage 0 111 0\n");
  EXPECT_THROW(load_assignment(sys, wrong_width), CheckError);
}

TEST(SerializeAssignment, DashForEmptySlotLists) {
  SystemModel sys;
  Server s;
  s.local_rate = 10;
  s.repo_rate = 1;
  sys.add_server(s);
  Page p;
  p.host = 0;
  p.html_bytes = 10;
  p.frequency = 1.0;  // no objects at all
  sys.add_page(std::move(p));
  sys.finalize();

  Assignment asg(sys);
  std::stringstream ss;
  save_assignment(asg, ss);
  EXPECT_NE(ss.str().find("page 0 - -"), std::string::npos);
  EXPECT_NO_THROW(load_assignment(sys, ss));
}

TEST(SerializeFiles, RoundTripThroughDisk) {
  const SystemModel original = testing::tiny_system();
  const std::string sys_path = "/tmp/mmr_test_system.txt";
  const std::string asg_path = "/tmp/mmr_test_assignment.txt";
  save_system_file(original, sys_path);
  const SystemModel loaded = load_system_file(sys_path);
  expect_systems_equal(original, loaded);

  Assignment asg(loaded);
  partition_all(loaded, asg);
  save_assignment_file(asg, asg_path);
  const Assignment round = load_assignment_file(loaded, asg_path);
  EXPECT_EQ(round.comp_local(0, 0), asg.comp_local(0, 0));
  std::remove(sys_path.c_str());
  std::remove(asg_path.c_str());
}

TEST(SerializeFiles, MissingFileThrows) {
  EXPECT_THROW(load_system_file("/tmp/definitely_missing_mmr.txt"),
               CheckError);
}

}  // namespace
}  // namespace mmr
