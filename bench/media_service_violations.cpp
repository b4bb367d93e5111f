// Companion experiment to §7.1's footnote: DeathStarBench's *media service*
// exhibits the same XCY violation class as the social network. One lineage
// carries dependencies on two datastores (S3-like media + MongoDB-like
// reviews), so this also demonstrates multi-store barriers; the
// hotel-reservation negative control (no cross-datastore references → no
// violations, with or without Antipode) is reproduced alongside.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/hotel_reservation/hotel_reservation.h"
#include "src/apps/media_service/media_service.h"

using namespace antipode;

int main(int argc, char** argv) {
  BenchArgs args(argc, argv, {"requests", "scale"});
  args.SetupTimeScale();
  const int requests = args.GetInt("requests", 150);

  std::printf("# Media service (US upload -> EU render), %d reviews\n", requests);
  std::printf("%-10s %14s %14s %14s %16s\n", "variant", "review_miss", "media_miss",
              "violation_%", "window_mean_ms");
  for (int antipode = 0; antipode <= 1; ++antipode) {
    MediaServiceConfig config;
    config.antipode = antipode == 1;
    config.num_reviews = requests;
    MediaServiceResult result = RunMediaService(config);
    std::printf("%-10s %14d %14d %13.1f%% %16.0f\n", antipode == 1 ? "antipode" : "original",
                result.review_missing, result.media_missing, 100.0 * result.ViolationRate(),
                result.consistency_window_model_ms.Mean());
    std::fflush(stdout);
  }

  std::printf("\n# Hotel reservation (negative control: no cross-datastore references)\n");
  HotelReservationConfig hotel;
  hotel.num_reservations = requests;
  HotelReservationResult result = RunHotelReservation(hotel);
  std::printf("reservations=%d violations=%d checker_inconsistent_sites=%d\n",
              result.reservations, result.violations, result.checker_inconsistent);
  std::printf("# paper: no XCY violations found in hotel reservation\n");
  return 0;
}
