package repro.partition

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Grouping, SetOps}
import repro.embed.PTREmbedder
import repro.ml.Siamese
import java.util.concurrent.{Callable, ForkJoinPool}
import scala.util.Random

class L2PSpec extends AnyFunSuite {

  private def fastCfg(target: Int, init: Int = 2, minSize: Int = 20) =
    L2P.Config(targetGroups = target, initGroups = init, minGroupSize = minSize,
      siamese = Siamese.Config(pairs = 1500, epochs = 2, lr = 0.05))

  private def clusteredDb(n: Int, k: Int, seed: Long): Array[Array[Int]] = {
    // tight per-cluster token pools → strong intra-cluster similarity
    val rnd = new Random(seed)
    Array.tabulate(n) { i =>
      val base = (i % k) * 200
      SetOps.canon(Seq.fill(6)(base + rnd.nextInt(10)))
    }
  }

  test("reaches at least the target group count when groups are large enough") {
    val db = clusteredDb(600, 4, 1)
    val res = L2P.partition(db, new PTREmbedder(800), fastCfg(8))
    assert(res.grouping.nGroups >= 8)
    assert(res.grouping.nSets == 600)
  }

  test("stops splitting groups below minGroupSize") {
    val db = clusteredDb(100, 2, 2)
    val res = L2P.partition(db, new PTREmbedder(400), fastCfg(64, init = 2, minSize = 30))
    // can't reach 64 groups of ≥30 sets from 100 sets
    assert(res.grouping.nGroups < 64)
    // every split group obeys the bound loosely (leaves may be any size, but
    // no leaf ≥ minSize remains unsplit unless the target was hit)
    assert(res.grouping.sizes.forall(_ > 0))
  }

  test("levels are nested refinements") {
    val db = clusteredDb(400, 4, 3)
    val res = L2P.partition(db, new PTREmbedder(800), fastCfg(8))
    for (Seq(coarse, fine) <- res.levels.sliding(2)) {
      // map fine group → coarse group must be a function
      val parent = scala.collection.mutable.Map.empty[Int, Int]
      for (sid <- db.indices) {
        val f = fine.assignment(sid)
        val c = coarse.assignment(sid)
        assert(parent.getOrElseUpdate(f, c) == c, s"fine group $f spans coarse groups")
      }
    }
  }

  test("final grouping is the last level") {
    val db = clusteredDb(300, 3, 4)
    val res = L2P.partition(db, new PTREmbedder(600), fastCfg(4))
    assert(res.levels.last.assignment.toSeq == res.grouping.assignment.toSeq)
  }

  test("model.assign reproduces the training assignment for every set") {
    val db = clusteredDb(500, 4, 5)
    val res = L2P.partition(db, new PTREmbedder(800), fastCfg(8, init = 3))
    for (sid <- db.indices) {
      assert(res.model.assign(db(sid)) == res.grouping.assignment(sid), s"set $sid")
    }
  }

  test("min-token chunks never split a min-token run") {
    val rnd = new Random(6)
    // many sets sharing min token 0 → chunk boundaries must respect runs
    val db: Array[Array[Int]] = Array.fill(200)(
      SetOps.canon(Seq(0) ++ Seq.fill(3)(rnd.nextInt(50))))
    val res = L2P.partition(db, new PTREmbedder(64), fastCfg(4, init = 4))
    for (sid <- db.indices) {
      assert(res.model.assign(db(sid)) == res.grouping.assignment(sid))
    }
  }

  test("cluster-structured data ends up with low-GPO groups vs random") {
    val db = clusteredDb(400, 4, 7)
    val res = L2P.partition(db, new PTREmbedder(800),
      L2P.Config(targetGroups = 4, initGroups = 1, minGroupSize = 20,
        siamese = Siamese.Config(pairs = 6000, epochs = 4, lr = 0.05)))
    val rand = Grouping.random(db.length, res.grouping.nGroups, 11)
    assert(Grouping.gpoSampled(db, res.grouping, 64) < Grouping.gpoSampled(db, rand, 64))
  }

  test("trains one model per split and records loss curves") {
    val db = clusteredDb(300, 2, 8)
    val res = L2P.partition(db, new PTREmbedder(400), fastCfg(4, init = 1))
    assert(res.modelsTrained >= 3) // 1 → 2 → 4 needs ≥ 3 models
    assert(res.lossCurves.length == res.modelsTrained)
  }

  test("single-set database yields one group") {
    val db: Array[Array[Int]] = Array(Array(1, 2, 3))
    val res = L2P.partition(db, new PTREmbedder(8), fastCfg(4))
    assert(res.grouping.nGroups == 1)
    assert(res.model.assign(Array(1, 2, 3)) == 0)
  }

  test("assign handles unseen and empty inputs") {
    val db = clusteredDb(200, 2, 9)
    val res = L2P.partition(db, new PTREmbedder(800), fastCfg(4))
    val g1 = res.model.assign(Array(799)) // max token
    val g2 = res.model.assign(Array.empty[Int])
    assert(g1 >= 0 && g1 < res.grouping.nGroups)
    assert(g2 >= 0 && g2 < res.grouping.nGroups)
  }

  test("partition is bit-identical on ForkJoin pools of 1 and 4 threads") {
    val db = clusteredDb(800, 8, 12)
    val embedder = new PTREmbedder(1600)
    def onPool(threads: Int): L2P.Result = {
      val pool = new ForkJoinPool(threads)
      try pool.submit(new Callable[L2P.Result] {
        def call(): L2P.Result = L2P.partition(db, embedder, fastCfg(16, init = 3))
      }).get()
      finally pool.shutdown()
    }
    val (a, b) = (onPool(1), onPool(4))
    assert(a.modelsTrained == b.modelsTrained)
    assert(a.grouping.assignment.toSeq == b.grouping.assignment.toSeq)
    assert(a.levels.map(l => (l.nGroups, l.assignment.toSeq)) ==
      b.levels.map(l => (l.nGroups, l.assignment.toSeq)))
    def bits(curves: Seq[Array[Double]]) =
      curves.map(_.map(java.lang.Double.doubleToRawLongBits).toSeq)
    assert(bits(a.lossCurves) == bits(b.lossCurves))
    for (s <- db.toSeq ++ Seq(Array(1599), Array.empty[Int]))
      assert(a.model.assign(s) == b.model.assign(s), s.mkString("[", ",", "]"))
  }

  test("partitionWithReps validates rep count") {
    val db = clusteredDb(50, 2, 10)
    intercept[IllegalArgumentException] {
      L2P.partitionWithReps(db, new PTREmbedder(400), Array(Array(1.0)), fastCfg(2))
    }
  }
}
