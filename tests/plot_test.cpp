#include <gtest/gtest.h>

#include <cmath>

#include "io/plot.h"

namespace antalloc {
namespace {

TEST(Plot, RendersExpectedDimensions) {
  std::vector<double> wave;
  for (int i = 0; i < 200; ++i) wave.push_back(std::sin(i * 0.1));
  PlotOptions opts;
  opts.width = 40;
  opts.height = 10;
  const std::string text = plot_series(wave, opts);
  // height rows + 1 axis row.
  int lines = 0;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 11);
  EXPECT_NE(text.find('*'), std::string::npos);
}

TEST(Plot, GuidesAreDrawn) {
  const std::vector<double> flat(50, 0.0);
  PlotOptions opts;
  opts.guides = {1.0, -1.0};
  const std::string text = plot_series(flat, opts);
  EXPECT_NE(text.find('-'), std::string::npos);
}

TEST(Plot, MultiSeriesUsesDistinctMarkers) {
  const std::vector<std::vector<double>> series{
      std::vector<double>(60, 1.0), std::vector<double>(60, -1.0)};
  const std::string text = plot_series(series);
  EXPECT_NE(text.find('*'), std::string::npos);
  EXPECT_NE(text.find('+'), std::string::npos);
}

TEST(Plot, TitleShown) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  PlotOptions opts;
  opts.title = "hello-plot";
  EXPECT_NE(plot_series(xs, opts).find("hello-plot"), std::string::npos);
}

TEST(Plot, EmptyInputRejected) {
  EXPECT_THROW(plot_series(std::span<const double>{}), std::invalid_argument);
}

TEST(Plot, TraceDeficitIncludesBandGuides) {
  Trace trace(1, 1);
  for (Round t = 1; t <= 40; ++t) {
    const Count deficit = (t % 2 == 0) ? 20 : -20;
    trace.record(t, std::vector<Count>{deficit}, 20);
  }
  const std::string text = plot_trace_deficit(trace, 0, 0.05, 100);
  EXPECT_NE(text.find("deficit of task 0"), std::string::npos);
  EXPECT_NE(text.find('-'), std::string::npos);  // band guides
}

}  // namespace
}  // namespace antalloc
