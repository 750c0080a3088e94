// Crash injection around the shadow-file atomic commit (paper section
// 3.2): "If a crash occurs before the shadow substitution, the original
// replica is retained during recovery and the shadow discarded."
#include <gtest/gtest.h>

#include "src/repl/physical.h"

namespace ficus::repl {
namespace {

class CrashTest : public ::testing::Test {
 protected:
  CrashTest() : device_(8192), cache_(&device_, 256), ufs_(&cache_, &clock_) {
    EXPECT_TRUE(ufs_.Format(1024).ok());
    layer_ = std::make_unique<PhysicalLayer>(&ufs_, &clock_);
    EXPECT_TRUE(layer_->CreateVolume(VolumeId{1, 1}, 1, "vol1", true).ok());
    auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
    EXPECT_TRUE(file.ok());
    file_ = file.value();
    EXPECT_TRUE(layer_->WriteData(file_, 0, {'o', 'l', 'd'}).ok());
  }

  // Simulates the machine rebooting: drop the page cache, clear the crash
  // flag, remount the UFS (its own recovery) and attach a fresh physical
  // layer to the surviving image.
  std::unique_ptr<PhysicalLayer> Reboot() {
    device_.ClearCrash();
    cache_.Invalidate();
    EXPECT_TRUE(ufs_.Mount().ok());
    auto fresh = std::make_unique<PhysicalLayer>(&ufs_, &clock_);
    EXPECT_TRUE(fresh->Attach("vol1").ok());
    return fresh;
  }

  VersionVector NewerVv() {
    auto attrs = layer_->GetAttributes(file_);
    EXPECT_TRUE(attrs.ok());
    VersionVector vv = attrs->vv;
    vv.Increment(2);
    return vv;
  }

  SimClock clock_;
  storage::BlockDevice device_;
  storage::BufferCache cache_;
  ufs::Ufs ufs_;
  std::unique_ptr<PhysicalLayer> layer_;
  FileId file_;
};

TEST_F(CrashTest, CrashBeforeInstallKeepsOriginal) {
  device_.InjectCrash();  // every write from here on is lost
  // The install appears to succeed (writes are silently dropped).
  (void)layer_->InstallVersion(file_, {'n', 'e', 'w', '!'}, NewerVv());

  auto recovered = Reboot();
  auto data = recovered->ReadAllData(file_);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{'o', 'l', 'd'}));
  // Recovery found nothing to clean (nothing was persisted).
  auto problems = ufs_.Check();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty()) << problems->front();
}

TEST_F(CrashTest, CompletedInstallSurvivesReboot) {
  VersionVector vv = NewerVv();
  ASSERT_TRUE(layer_->InstallVersion(file_, {'n', 'e', 'w'}, vv).ok());
  auto recovered = Reboot();
  auto data = recovered->ReadAllData(file_);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{'n', 'e', 'w'}));
  auto attrs = recovered->GetAttributes(file_);
  ASSERT_TRUE(attrs.ok());
  EXPECT_TRUE(attrs->vv == vv);
}

TEST_F(CrashTest, StrandedShadowFileCleanedAtAttach) {
  // Hand-craft the mid-install state: a shadow file exists beside the
  // original (as if the crash hit after the shadow write, before the
  // repoint).
  auto container = ufs_.DirLookup(ufs::kRootInode, "vol1");
  ASSERT_TRUE(container.ok());
  auto root_dir = ufs_.DirLookup(*container, kRootFileId.ToHex());
  ASSERT_TRUE(root_dir.ok());
  std::string shadow_name = file_.ToHex() + ".shadow";
  auto shadow = ufs_.CreateFile(*root_dir, shadow_name, ufs::FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(shadow.ok());
  ASSERT_TRUE(ufs_.WriteAll(*shadow, {'h', 'a', 'l', 'f'}).ok());

  auto recovered = Reboot();
  EXPECT_EQ(recovered->stats().shadows_recovered, 1u);
  // Original intact, shadow gone, filesystem clean.
  auto data = recovered->ReadAllData(file_);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{'o', 'l', 'd'}));
  EXPECT_EQ(ufs_.DirLookup(*root_dir, shadow_name).status().code(), ErrorCode::kNotFound);
  auto problems = ufs_.Check();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty()) << problems->front();
}

TEST_F(CrashTest, RepeatedInstallsAfterRecoveryConverge) {
  // Crash-drop one install, reboot, then redo it: the outcome must match
  // a never-crashed install (idempotent recovery).
  VersionVector vv = NewerVv();
  device_.InjectCrash();
  (void)layer_->InstallVersion(file_, {'x'}, vv);
  auto recovered = Reboot();
  ASSERT_TRUE(recovered->InstallVersion(file_, {'x'}, vv).ok());
  auto data = recovered->ReadAllData(file_);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{'x'}));
  auto attrs = recovered->GetAttributes(file_);
  ASSERT_TRUE(attrs.ok());
  EXPECT_TRUE(attrs->vv == vv);
  auto problems = ufs_.Check();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty()) << problems->front();
}

}  // namespace
}  // namespace ficus::repl
