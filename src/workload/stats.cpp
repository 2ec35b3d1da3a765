#include "workload/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.h"
#include "util/table.h"

namespace mmr {

WorkloadStats characterize(const SystemModel& sys, double hot_fraction) {
  MMR_CHECK_MSG(hot_fraction > 0 && hot_fraction < 1,
                "hot_fraction must be in (0,1)");
  WorkloadStats ws;
  ws.num_servers = sys.num_servers();
  ws.num_pages = sys.num_pages();
  ws.num_objects = sys.num_objects();
  ws.hot_fraction_used = hot_fraction;

  for (ObjectId k = 0; k < sys.num_objects(); ++k) {
    ws.object_bytes.add(static_cast<double>(sys.object_bytes(k)));
  }

  std::size_t pages_with_optional = 0;
  for (PageId j = 0; j < sys.num_pages(); ++j) {
    const Page& p = sys.page(j);
    ws.compulsory_per_page.add(static_cast<double>(p.compulsory.size()));
    if (!p.optional.empty()) {
      ++pages_with_optional;
      ws.optional_per_page_when_present.add(
          static_cast<double>(p.optional.size()));
    }
    ws.html_bytes.add(static_cast<double>(p.html_bytes));
    ws.page_frequency.add(p.frequency);
  }
  ws.fraction_pages_with_optional =
      sys.num_pages() == 0
          ? 0
          : static_cast<double>(pages_with_optional) /
                static_cast<double>(sys.num_pages());

  double hot_traffic = 0, total_traffic = 0;
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    const auto& pages = sys.pages_on_server(i);
    ws.pages_per_server.add(static_cast<double>(pages.size()));
    ws.distinct_objects_per_server.add(
        static_cast<double>(sys.objects_referenced(i).size()));
    ws.full_replication_bytes.add(
        static_cast<double>(sys.full_replication_bytes(i)));

    std::vector<double> freqs;
    freqs.reserve(pages.size());
    for (PageId j : pages) freqs.push_back(sys.page(j).frequency);
    std::sort(freqs.begin(), freqs.end(), std::greater<>());
    const auto hot = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::lround(hot_fraction * static_cast<double>(freqs.size()))));
    for (std::size_t x = 0; x < freqs.size(); ++x) {
      total_traffic += freqs[x];
      if (x < hot) hot_traffic += freqs[x];
    }
  }
  ws.measured_hot_traffic_share =
      total_traffic > 0 ? hot_traffic / total_traffic : 0;
  return ws;
}

std::string WorkloadStats::to_string() const {
  std::ostringstream os;
  os << "servers=" << num_servers << " pages=" << num_pages
     << " objects=" << num_objects << "\n"
     << "pages/server: mean=" << pages_per_server.mean()
     << " min=" << pages_per_server.min()
     << " max=" << pages_per_server.max() << "\n"
     << "distinct MOs/server: mean=" << distinct_objects_per_server.mean()
     << "\n"
     << "compulsory/page: mean=" << compulsory_per_page.mean()
     << " min=" << compulsory_per_page.min()
     << " max=" << compulsory_per_page.max() << "\n"
     << "optional/page (when present): mean="
     << (optional_per_page_when_present.empty()
             ? 0.0
             : optional_per_page_when_present.mean())
     << "\n"
     << "pages with optional: "
     << format_share(fraction_pages_with_optional) << "\n"
     << "html bytes: mean=" << html_bytes.mean() << "\n"
     << "object bytes: mean=" << object_bytes.mean() << "\n"
     << "full replication footprint/server: "
     << format_bytes(full_replication_bytes.mean()) << "\n"
     << "hot " << format_share(hot_fraction_used) << " of pages carry "
     << format_share(measured_hot_traffic_share) << " of traffic\n";
  return os.str();
}

}  // namespace mmr
