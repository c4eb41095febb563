/**
 * @file
 * hostbench: host-time benchmark of the DySel reproduction.
 *
 *   hostbench --workload sim-suite|serve-warm|serve-cold --seed N
 *             --seconds S --trace 0|1 [--trace-out FILE]
 *             [--tiny] [--corrupt] [--pins FILE] [--print-pins]
 *
 * Prints progress on stderr and, as the last line of stdout, one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.  See
 * README.md for the workloads and the metric map.
 */
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hh"

namespace {

int
usage()
{
    std::cerr << "usage: hostbench --workload sim-suite|serve-warm|"
                 "serve-cold --seed N --seconds S --trace 0|1\n"
                 "       [--trace-out FILE] [--work-dir DIR] [--tiny]"
                 " [--corrupt] [--pins FILE] [--print-pins]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    hostbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                opt.workload = value();
            else if (arg == "--seed")
                opt.seed = std::stoull(value());
            else if (arg == "--seconds")
                opt.seconds = std::stod(value());
            else if (arg == "--trace")
                opt.trace = std::stoi(value()) != 0;
            else if (arg == "--trace-out")
                opt.traceOut = value();
            else if (arg == "--work-dir")
                opt.workDir = value();
            else if (arg == "--pins")
                opt.pinsPath = value();
            else if (arg == "--tiny")
                opt.tiny = true;
            else if (arg == "--corrupt")
                opt.corrupt = true;
            else if (arg == "--print-pins")
                opt.printPins = true;
            else
                return usage();
        } catch (const std::exception &e) {
            std::cerr << "hostbench: " << e.what() << '\n';
            return usage();
        }
    }
    if (opt.seconds <= 0)
        return usage();

    hostbench::Result result;
    try {
        if (opt.workload == "sim-suite")
            result = hostbench::runSimSuite(opt);
        else if (opt.workload == "serve-warm")
            result = hostbench::runServe(opt, false);
        else if (opt.workload == "serve-cold")
            result = hostbench::runServe(opt, true);
        else
            return usage();
    } catch (const std::exception &e) {
        std::cerr << "hostbench: " << e.what() << '\n';
        return 1;
    }
    if (opt.printPins)
        return 0;
    hostbench::printResult(result);
    return 0;
}
