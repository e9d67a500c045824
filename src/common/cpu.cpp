#include "common/cpu.hpp"

#include <sched.h>

#include <algorithm>
#include <thread>

namespace lte {

unsigned
usable_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace lte
