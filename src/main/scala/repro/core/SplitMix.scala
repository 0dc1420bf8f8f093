package repro.core

import java.lang.invoke.{MethodHandles, VarHandle}
import java.util.SplittableRandom

/** The SplitMix64 stream of a `java.util.SplittableRandom`, run in a
  * kernel's locals.
  *
  * `SplittableRandom` is SplitMix64: each draw adds the instance's `gamma`
  * to its `seed` and returns `mix64(seed)`, and `nextDouble` is
  * `(nextLong >>> 11)·2⁻⁵³`. A kernel reads `seed` and `gamma` once with
  * [[seed]] and [[gamma]], draws `z = mix64(s += gamma)` per examined edge,
  * and stores `s` back with [[setSeed]] before anything else draws from the
  * same instance. The draws are exactly the JDK's, so `SplittableRandom`
  * stays the type every estimator API takes.
  *
  * An edge of probability p is live iff `nextDouble < p`, which the kernels
  * test as `(z >>> 11) < LocalGraph.threshold(p)`.
  *
  * The private fields are read through `VarHandle`s, which needs
  * `--add-opens=java.base/java.util=ALL-UNNAMED` on the JVM (spark-submit
  * passes it on JDK 17, as do this build's forked JVMs).
  */
object SplitMix {

  private val (seedH, gammaH): (VarHandle, VarHandle) =
    try {
      val lookup = MethodHandles.privateLookupIn(classOf[SplittableRandom], MethodHandles.lookup())
      (lookup.findVarHandle(classOf[SplittableRandom], "seed", classOf[Long]),
       lookup.findVarHandle(classOf[SplittableRandom], "gamma", classOf[Long]))
    } catch {
      case e: IllegalAccessException => throw new IllegalStateException(
        "reading java.util.SplittableRandom's stream needs the JVM option " +
        "--add-opens=java.base/java.util=ALL-UNNAMED", e)
    }

  /** The current `seed` of `rng`. */
  def seed(rng: SplittableRandom): Long = (seedH.get(rng): Long)

  /** The `gamma` (stream increment) of `rng`. */
  def gamma(rng: SplittableRandom): Long = (gammaH.get(rng): Long)

  /** Stores `s` as the `seed` of `rng`; its next draw continues from `s`. */
  def setSeed(rng: SplittableRandom, s: Long): Unit = seedH.set(rng, s)

  /** The JDK's `SplittableRandom.mix64` (Stafford's variant 13). */
  @inline def mix64(z0: Long): Long = {
    var z = (z0 ^ (z0 >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
}
