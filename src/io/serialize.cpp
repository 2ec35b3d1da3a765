#include "io/serialize.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace mmr {

namespace {

constexpr const char* kSystemHeader = "mmrepl-system v1";
constexpr const char* kAssignmentHeader = "mmrepl-assignment v1";

void write_capacity(std::ostream& os, double capacity) {
  if (capacity == kUnlimited) {
    os << "inf";
  } else {
    os << capacity;
  }
}

/// Line-oriented reader that tracks line numbers for error messages and,
/// when the stream can seek, how many input bytes are left.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {
    const std::istream::pos_type start = is_.tellg();
    if (start == std::istream::pos_type(-1)) return;
    is_.seekg(0, std::ios::end);
    const std::istream::pos_type end = is_.tellg();
    is_.clear();
    is_.seekg(start);
    if (end != std::istream::pos_type(-1) && end >= start) {
      remaining_ = static_cast<std::uint64_t>(end - start);
    }
  }

  /// Returns the next non-empty line; throws at EOF.
  std::string next(const char* expectation) {
    std::string line;
    while (std::getline(is_, line)) {
      ++line_number_;
      remaining_ -= std::min<std::uint64_t>(remaining_, line.size() + 1);
      if (!line.empty()) return line;
    }
    MMR_CHECK_MSG(false, "unexpected end of input at line " << line_number_
                                                            << ": expected "
                                                            << expectation);
    return {};
  }

  /// Parses the next line with the given leading keyword; returns the rest
  /// as a token stream.
  std::istringstream expect(const std::string& keyword) {
    const std::string line = next(keyword.c_str());
    std::istringstream ss(line);
    std::string word;
    ss >> word;
    MMR_CHECK_MSG(word == keyword, "line " << line_number_ << ": expected '"
                                           << keyword << "', got '" << word
                                           << "'");
    return ss;
  }

  int line_number() const { return line_number_; }

  /// Input bytes not yet read; the maximum when the stream cannot seek.
  std::uint64_t remaining() const { return remaining_; }

 private:
  std::istream& is_;
  int line_number_ = 0;
  std::uint64_t remaining_ = std::numeric_limits<std::uint64_t>::max();
};

double read_capacity(std::istringstream& ss, const LineReader& reader) {
  std::string token;
  ss >> token;
  MMR_CHECK_MSG(!token.empty(),
                "line " << reader.line_number() << ": missing capacity");
  if (token == "inf") return kUnlimited;
  std::istringstream conv(token);
  double value = 0;
  conv >> value;
  MMR_CHECK_MSG(!conv.fail(), "line " << reader.line_number()
                                      << ": bad capacity '" << token << "'");
  return value;
}

template <typename T>
T read_value(std::istringstream& ss, const LineReader& reader,
             const char* what) {
  T value{};
  ss >> value;
  MMR_CHECK_MSG(!ss.fail(),
                "line " << reader.line_number() << ": bad " << what);
  return value;
}

/// Reads the entry count `what` and rejects one larger than the input that
/// is left: every entry takes at least one more byte, so a count past that
/// is corrupt. Counts never size an allocation up front (a stream that
/// cannot seek leaves them unchecked); entries are appended as they parse.
std::size_t read_count(std::istringstream& ss, const LineReader& reader,
                       const char* what) {
  const auto count = read_value<std::size_t>(ss, reader, what);
  MMR_CHECK_MSG(count <= reader.remaining(),
                "line " << reader.line_number() << ": " << what << " "
                        << count << " exceeds the " << reader.remaining()
                        << " bytes of input left");
  return count;
}

}  // namespace

void save_system(const SystemModel& sys, std::ostream& os) {
  MMR_CHECK_MSG(sys.finalized(), "save_system requires a finalized model");
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << kSystemHeader << '\n';
  os << "repository ";
  write_capacity(os, sys.repository().proc_capacity);
  os << '\n';
  os << "servers " << sys.num_servers() << '\n';
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    const Server& s = sys.server(i);
    os << "server ";
    write_capacity(os, s.proc_capacity);
    os << ' ' << s.storage_capacity << ' ' << s.ovhd_local << ' '
       << s.ovhd_repo << ' ' << s.local_rate << ' ' << s.repo_rate << '\n';
  }
  os << "objects " << sys.num_objects() << '\n';
  for (ObjectId k = 0; k < sys.num_objects(); ++k) {
    os << "object " << sys.object_bytes(k) << '\n';
  }
  os << "pages " << sys.num_pages() << '\n';
  for (PageId j = 0; j < sys.num_pages(); ++j) {
    const Page& p = sys.page(j);
    os << "page " << p.host << ' ' << p.html_bytes << ' ' << p.frequency
       << ' ' << p.optional_scale << ' ' << p.compulsory.size() << ' '
       << p.optional.size() << '\n';
    for (ObjectId k : p.compulsory) os << "c " << k << '\n';
    for (const OptionalRef& ref : p.optional) {
      os << "o " << ref.object << ' ' << ref.probability << '\n';
    }
  }
  MMR_CHECK_MSG(os.good(), "stream failure while writing system");
}

SystemModel load_system(std::istream& is) {
  LineReader reader(is);
  const std::string header = reader.next("header");
  MMR_CHECK_MSG(header == kSystemHeader,
                "unrecognized header '" << header << "'");

  SystemModel sys;
  {
    auto ss = reader.expect("repository");
    sys.set_repository({read_capacity(ss, reader)});
  }
  {
    auto ss = reader.expect("servers");
    const auto count = read_count(ss, reader, "server count");
    for (std::size_t i = 0; i < count; ++i) {
      auto line = reader.expect("server");
      Server s;
      s.proc_capacity = read_capacity(line, reader);
      s.storage_capacity =
          read_value<std::uint64_t>(line, reader, "storage");
      s.ovhd_local = read_value<double>(line, reader, "ovhd_local");
      s.ovhd_repo = read_value<double>(line, reader, "ovhd_repo");
      s.local_rate = read_value<double>(line, reader, "local_rate");
      s.repo_rate = read_value<double>(line, reader, "repo_rate");
      sys.add_server(s);
    }
  }
  {
    auto ss = reader.expect("objects");
    const auto count = read_count(ss, reader, "object count");
    for (std::size_t k = 0; k < count; ++k) {
      auto line = reader.expect("object");
      sys.add_object({read_value<std::uint64_t>(line, reader, "bytes")});
    }
  }
  {
    auto ss = reader.expect("pages");
    const auto count = read_count(ss, reader, "page count");
    for (std::size_t j = 0; j < count; ++j) {
      auto line = reader.expect("page");
      Page p;
      p.host = read_value<ServerId>(line, reader, "host");
      p.html_bytes = read_value<std::uint64_t>(line, reader, "html bytes");
      p.frequency = read_value<double>(line, reader, "frequency");
      p.optional_scale =
          read_value<double>(line, reader, "optional scale");
      const auto n_comp = read_count(line, reader, "compulsory count");
      const auto n_opt = read_count(line, reader, "optional count");
      for (std::size_t x = 0; x < n_comp; ++x) {
        auto c = reader.expect("c");
        p.compulsory.push_back(read_value<ObjectId>(c, reader, "object id"));
      }
      for (std::size_t x = 0; x < n_opt; ++x) {
        auto o = reader.expect("o");
        OptionalRef ref;
        ref.object = read_value<ObjectId>(o, reader, "object id");
        ref.probability = read_value<double>(o, reader, "probability");
        p.optional.push_back(ref);
      }
      sys.add_page(std::move(p));
    }
  }
  sys.finalize();
  return sys;
}

void save_assignment(const Assignment& asg, std::ostream& os) {
  const SystemModel& sys = asg.system();
  os << kAssignmentHeader << '\n';
  os << "pages " << sys.num_pages() << '\n';
  // Each page line is built in one reused buffer and written at once.
  std::string line;
  const auto append_bits = [&](const std::uint8_t* bits, std::size_t n) {
    if (n == 0) line += '-';
    for (std::size_t idx = 0; idx < n; ++idx) line += bits[idx] ? '1' : '0';
  };
  for (PageId j = 0; j < sys.num_pages(); ++j) {
    const Page& p = sys.page(j);
    char id[16];
    const auto id_end = std::to_chars(id, id + sizeof id, j).ptr;
    line.assign("page ");
    line.append(id, id_end);
    line += ' ';
    append_bits(asg.comp_row(j), p.compulsory.size());
    line += ' ';
    append_bits(asg.opt_row(j), p.optional.size());
    line += '\n';
    os.write(line.data(), static_cast<std::streamsize>(line.size()));
  }
  MMR_CHECK_MSG(os.good(), "stream failure while writing assignment");
}

Assignment load_assignment(const SystemModel& sys, std::istream& is) {
  LineReader reader(is);
  const std::string header = reader.next("header");
  MMR_CHECK_MSG(header == kAssignmentHeader,
                "unrecognized header '" << header << "'");
  auto ss = reader.expect("pages");
  const auto count = read_value<std::size_t>(ss, reader, "page count");
  MMR_CHECK_MSG(count == sys.num_pages(),
                "assignment has " << count << " pages but the system has "
                                  << sys.num_pages());

  Assignment asg(sys);
  for (std::size_t x = 0; x < count; ++x) {
    auto line = reader.expect("page");
    const auto j = read_value<PageId>(line, reader, "page id");
    MMR_CHECK_MSG(j < sys.num_pages(),
                  "line " << reader.line_number() << ": bad page id " << j);
    const Page& p = sys.page(j);
    std::string comp_bits, opt_bits;
    line >> comp_bits >> opt_bits;
    MMR_CHECK_MSG(!line.fail(),
                  "line " << reader.line_number() << ": missing bit strings");

    auto apply = [&](const std::string& bits, std::size_t expected,
                     auto setter) {
      if (bits == "-") {
        MMR_CHECK_MSG(expected == 0, "line " << reader.line_number()
                                             << ": expected " << expected
                                             << " bits, got none");
        return;
      }
      MMR_CHECK_MSG(bits.size() == expected,
                    "line " << reader.line_number() << ": expected "
                            << expected << " bits, got " << bits.size());
      for (std::size_t idx = 0; idx < bits.size(); ++idx) {
        MMR_CHECK_MSG(bits[idx] == '0' || bits[idx] == '1',
                      "line " << reader.line_number() << ": bad bit '"
                              << bits[idx] << "'");
        setter(static_cast<std::uint32_t>(idx), bits[idx] == '1');
      }
    };
    apply(comp_bits, p.compulsory.size(),
          [&](std::uint32_t idx, bool v) { asg.set_comp_local(j, idx, v); });
    apply(opt_bits, p.optional.size(),
          [&](std::uint32_t idx, bool v) { asg.set_opt_local(j, idx, v); });
  }
  return asg;
}

void save_system_file(const SystemModel& sys, const std::string& path) {
  std::ofstream os(path);
  MMR_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  save_system(sys, os);
}

SystemModel load_system_file(const std::string& path) {
  std::ifstream is(path);
  MMR_CHECK_MSG(is.is_open(), "cannot open " << path);
  return load_system(is);
}

void save_assignment_file(const Assignment& asg, const std::string& path) {
  std::ofstream os(path);
  MMR_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  save_assignment(asg, os);
}

Assignment load_assignment_file(const SystemModel& sys,
                                const std::string& path) {
  std::ifstream is(path);
  MMR_CHECK_MSG(is.is_open(), "cannot open " << path);
  return load_assignment(sys, is);
}

}  // namespace mmr
