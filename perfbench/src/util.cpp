/// @file util.cpp
/// @brief Host census and the Chrome trace writer.
#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "trace.hpp"
#include "util.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

int live_threads() {
    DIR* dir = opendir("/proc/self/task");
    if (dir == nullptr) {
        return -1;
    }
    int count = 0;
    while (dirent const* entry = readdir(dir)) {
        if (entry->d_name[0] != '.') {
            ++count;
        }
    }
    closedir(dir);
    return count;
}

int host_nproc() {
    long const n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<int>(n) : 1;
}

namespace {

std::string read_line(std::string const& path) {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

} // namespace

HostInfo host_info() {
    HostInfo info;
    info.nproc = host_nproc();
    for (int index = 0; index < 8; ++index) {
        std::string const dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
        std::string const level = read_line(dir + "level");
        if (level.empty()) {
            break;
        }
        std::string const type = read_line(dir + "type");
        std::string const suffix = type == "Data" ? "d" : type == "Instruction" ? "i" : "";
        info.caches.emplace_back("L" + level + suffix, read_line(dir + "size"));
    }
#if defined(__clang__)
    info.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    info.compiler = std::string("gcc ") + __VERSION__;
#else
    info.compiler = "unknown";
#endif
    info.build_type = PERFBENCH_BUILD_TYPE;
    return info;
}

bool write_chrome_trace(
    std::string const& path, std::vector<Lane const*> const& lanes, std::string const& workload) {
    // Only the first ops of each lane go to the file; aggregates use all.
    constexpr std::size_t kOpsPerLane = 1500;
    std::int64_t origin = 0;
    bool have_origin = false;
    for (auto const* lane: lanes) {
        if (!lane->spans.empty() && (!have_origin || lane->spans.front().start_ns < origin)) {
            origin = lane->spans.front().start_ns;
            have_origin = true;
        }
    }
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    char buf[512];
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    std::snprintf(
        buf, sizeof buf,
        R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"perfbench %s"}})",
        workload.c_str());
    out << buf;
    for (std::size_t rank = 0; rank < lanes.size(); ++rank) {
        std::snprintf(
            buf, sizeof buf,
            ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%zu,\"args\":{\"name\":\"rank %zu\"}}",
            rank, rank);
        out << buf;
        Lane const& lane = *lanes[rank];
        std::size_t ops = 0;
        for (auto const& span: lane.spans) {
            bool const is_op = span.parent < 0;
            if (is_op && ++ops > kOpsPerLane) {
                break;
            }
            std::int64_t const dur = span.end_ns - span.start_ns;
            std::int64_t const self = is_op ? dur - span.child_ns : dur;
            std::snprintf(
                buf, sizeof buf,
                ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%.3f,"
                "\"dur\":%.3f,\"args\":{\"op_id\":%llu,\"self_us\":%.3f}}",
                is_op ? (workload + ".op").c_str() : span.name, is_op ? "op" : "layer", rank,
                1e-3 * static_cast<double>(span.start_ns - origin), 1e-3 * static_cast<double>(dur),
                static_cast<unsigned long long>(span.op_id), 1e-3 * static_cast<double>(self));
            out << buf;
        }
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
