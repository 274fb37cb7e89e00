package repro.exp

import repro.core._
import repro.data.SetGen
import repro.embed.PTREmbedder
import repro.io.IOModel
import repro.ml.Siamese
import repro.partition.L2P

import scala.util.Random

/** Shared experiment plumbing: timers, workload builders, and the default
  * LES³ construction (L2P over PTR with the paper's §7.1 hyper-parameters).
  */
object Harness {

  /** Wall-clock of `f` in milliseconds (double). */
  def timeMs[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e6)
  }

  /** Mean per-call milliseconds of `f` over `queries`. */
  def avgMs[Q](queries: Seq[Q])(f: Q => Any): Double = {
    val t0 = System.nanoTime()
    queries.foreach(f)
    (System.nanoTime() - t0) / 1e6 / queries.size
  }

  /** Sample `count` query sets from the database (§7.1: queries are drawn
    * from the dataset itself).
    */
  def sampleQueries(db: collection.IndexedSeq[Array[Int]], count: Int, seed: Long = 97): Array[Array[Int]] = {
    val rnd = new Random(seed)
    Array.fill(math.min(count, db.length))(db(rnd.nextInt(db.length)))
  }

  /** Paper's empirical rule of thumb (§7.5): n ≈ 0.5%·|D|, rounded up to a
    * power of two (the cascade splits in powers of two).
    */
  def defaultGroups(nSets: Int): Int = {
    val raw = math.max(4, (0.005 * nSets).round.toInt)
    Integer.highestOneBit(raw - 1) * 2
  }

  /** §7.1 training configuration (restarts are this repo's stabilizer for
    * the paper's local-search training; see Siamese.Config).
    */
  def paperSiamese(pairs: Int = 40000, restarts: Int = 3): Siamese.Config =
    Siamese.Config(pairs = pairs, batchSize = 256, epochs = 3, lr = 0.05,
      restarts = restarts)

  /** L2P config with init chunks scaled to the dataset (paper: 128 chunks
    * on million-set data; we scale to ≈ |D|/2500, ≥ 4).
    */
  def l2pConfig(nSets: Int, targetGroups: Int, pairs: Int = 40000,
                restarts: Int = 3): L2P.Config = {
    val init = math.max(4, math.min(128, nSets / 2500))
    L2P.Config(targetGroups = targetGroups,
               initGroups = math.min(init, targetGroups),
               minGroupSize = 50,
               siamese = paperSiamese(pairs, restarts))
  }

  /** A fully-built LES³ instance plus its provenance. */
  final case class BuiltLes3(db: collection.IndexedSeq[Array[Int]], l2p: L2P.Result,
                             index: Les3Index, partitionMs: Double)

  /** Build LES³ for a database: PTR reps → L2P cascade → TGM index. */
  def buildLes3(db: collection.IndexedSeq[Array[Int]], nTokens: Int, targetGroups: Int,
                pairs: Int = 40000, io: IOModel = IOModel.InMemory,
                restarts: Int = 3): BuiltLes3 = {
    val (l2p, ms) = timeMs {
      L2P.partition(db, new PTREmbedder(nTokens),
        l2pConfig(db.length, targetGroups, pairs, restarts))
    }
    BuiltLes3(db, l2p, new Les3Index(db, l2p.grouping, SetOps.Jaccard, io), ms)
  }

  /** Build for a profile with the default group count. */
  def buildLes3(p: SetGen.Profile): BuiltLes3 = {
    val db = SetGen.local(p)
    buildLes3(db, p.nTokens, defaultGroups(p.nSets))
  }

  /** Mean PE over kNN queries (Definition 2.3). */
  def meanPeKnn(index: Les3Index, queries: Seq[Array[Int]], k: Int): Double =
    queries.map(q => index.knn(q, k).stats.peKnn(index.nSets, k)).sum / queries.size
}
