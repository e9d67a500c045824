/**
 * @file
 * Runtime-side SampleSource adapters: the glue between the io sample
 * plane (which knows nothing about parameter models or input pools)
 * and the engines' input machinery.
 *
 * GeneratorSampleSource runs the engine's own InputGenerator on the
 * producer thread, drawing subframes from the parameter model in
 * exactly the order the inline path would — so an offloaded
 * zero-jitter lossless run delivers the identical (params, signals)
 * sequence and reproduces the inline digests bit for bit.  The signal
 * pointers it publishes reference the generator's long-lived pools:
 * the handoff to SubframeJob::prepare is zero-copy.
 */
#ifndef LTE_RUNTIME_SAMPLE_SOURCE_HPP
#define LTE_RUNTIME_SAMPLE_SOURCE_HPP

#include <cstdint>

#include "io/sample_plane.hpp"
#include "runtime/input_generator.hpp"
#include "workload/parameter_model.hpp"

namespace lte::runtime {

class GeneratorSampleSource : public io::SampleSource
{
  public:
    /**
     * @param cell_id  the lane's cell, stamped over the model's
     *        params.cell_id before validation (every lane serves its
     *        own cell).
     *
     * Both references must outlive the source; they are only ever
     * touched from the producer thread while a feed is running.
     */
    GeneratorSampleSource(InputGenerator &input,
                          workload::ParameterModel &model,
                          std::uint32_t cell_id)
        : input_(input), model_(model), cell_id_(cell_id)
    {
    }

    bool
    produce(io::IqFrame &frame) override
    {
        frame.params = model_.next_subframe();
        frame.params.cell_id = cell_id_;
        frame.params.validate();
        input_.signals_for(frame.params, frame.signals);
        return true;
    }

    void
    skip() override
    {
        // A lost tick still consumes its model draw, so delivered
        // frames keep the same stream positions the inline path
        // would have given them.
        (void)model_.next_subframe();
    }

  private:
    InputGenerator &input_;
    workload::ParameterModel &model_;
    std::uint32_t cell_id_;
};

} // namespace lte::runtime

#endif // LTE_RUNTIME_SAMPLE_SOURCE_HPP
