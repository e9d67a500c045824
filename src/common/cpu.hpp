/**
 * @file
 * Host CPU queries for sizing thread pools.
 */
#ifndef LTE_COMMON_CPU_HPP
#define LTE_COMMON_CPU_HPP

namespace lte {

/**
 * CPUs this process may run on: the size of its scheduler affinity
 * mask (what `taskset` or a container's cpuset leaves it), falling
 * back to std::thread::hardware_concurrency() where the mask cannot
 * be read.  Always at least 1.
 */
unsigned usable_cpus();

} // namespace lte

#endif // LTE_COMMON_CPU_HPP
